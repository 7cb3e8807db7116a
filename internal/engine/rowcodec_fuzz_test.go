package engine

import (
	"bytes"
	"testing"
)

// FuzzDecodeRow: decodeRow is the decoder every row of every read funnels
// through — heap records, version-store images, ghosts. Hostile bytes must
// come back as an error or as cells inside the input, never a panic or an
// allocation the input's size does not justify; whatever decodes re-encodes
// to a record that decodes to the same cells; and encodeRow/decodeRow round
// trip arbitrary cells (an empty cell is SQL NULL and decodes as nil); and
// rowCell reads each cell of a well-formed record as decodeRow does.
func FuzzDecodeRow(f *testing.F) {
	f.Add(encodeRow(nil), []byte(nil), []byte(nil))
	f.Add(encodeRow([][]byte{[]byte("k"), nil, bytes.Repeat([]byte{0xAE}, 65)}), []byte("a"), []byte{})
	f.Add([]byte{0xff, 0xff}, []byte("hostile count"), []byte{0})
	f.Add([]byte{1, 0, 0xff, 0xff, 0xff, 0x7f, 1}, []byte{}, []byte("hostile length"))
	f.Fuzz(func(t *testing.T, rec, a, b []byte) {
		sameCells := func(got, want [][]byte) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%d cells, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) || (len(want[i]) == 0 && got[i] != nil) {
					t.Fatalf("cell %d = %x, want %x", i, got[i], want[i])
				}
			}
		}
		if cells, err := decodeRow(rec); err == nil {
			if len(cells) > len(rec)/4 {
				t.Fatalf("%d cells decoded from %d bytes", len(cells), len(rec))
			}
			again, err := decodeRow(encodeRow(cells))
			if err != nil {
				t.Fatalf("re-encoded record does not decode: %v", err)
			}
			sameCells(again, cells)
			// rowCell, the ghost pass's one-cell reader, agrees with the
			// full decode on every cell and reads NULL past the last.
			for i := 0; i <= len(cells); i++ {
				var want []byte
				if i < len(cells) {
					want = cells[i]
				}
				if got, ok := rowCell(rec, i); !ok || !bytes.Equal(got, want) || (want == nil && got != nil) {
					t.Fatalf("rowCell(%d) = %x, %v; decodeRow has %x", i, got, ok, want)
				}
			}
		}
		cells := [][]byte{a, b, a}
		got, err := decodeRow(encodeRow(cells))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		sameCells(got, cells)
	})
}
