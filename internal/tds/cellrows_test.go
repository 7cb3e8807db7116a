package tds

import (
	"bytes"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"
)

func sampleCellRows() [][][]byte {
	return [][][]byte{
		{[]byte("alpha"), nil, {}},
		{},
		{[]byte("a longer ciphertext-shaped cell"), []byte("b")},
	}
}

// allocatedBy reports the bytes fn allocates on the heap.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestCellRowsRoundTrip(t *testing.T) {
	rows := sampleCellRows()
	payload := EncodeCellRows(rows)
	got, err := DecodeCellRows(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
	}
	for r := range rows {
		if len(got[r]) != len(rows[r]) {
			t.Fatalf("row %d: %d cells, want %d", r, len(got[r]), len(rows[r]))
		}
		for c := range rows[r] {
			if (got[r][c] == nil) != (rows[r][c] == nil) || !bytes.Equal(got[r][c], rows[r][c]) {
				t.Fatalf("row %d cell %d: %q, want %q", r, c, got[r][c], rows[r][c])
			}
		}
	}
}

// The cell-rows layout is a fixed point: bulk payloads and the ladder's
// encode/decode rungs depend on its bytes.
func TestEncodeCellRowsGolden(t *testing.T) {
	const want = "00000003000300000006616c706861000000000000000100000002" +
		"0000002061206c6f6e67657220636970686572746578742d7368617065642063656c6c0000000262"
	if got := hex.EncodeToString(EncodeCellRows(sampleCellRows())); got != want {
		t.Fatalf("EncodeCellRows output changed:\n got %s\nwant %s", got, want)
	}
}

// hostileCellRows are payloads whose counts promise more than their bytes
// hold. They seed FuzzDecodeCellRows as well.
func hostileCellRows() map[string][]byte {
	valid := EncodeCellRows(sampleCellRows())
	return map[string][]byte{
		"empty":           {},
		"short count":     {0, 0, 1},
		"16 rows, 0 left": {0x10, 0, 0, 0},
		"1 row, 0 left":   {0x01, 0, 0, 0},
		"max rows":        {0xFF, 0xFF, 0xFF, 0xFF},
		"max cells":       {0, 0, 0, 1, 0xFF, 0xFF},
		"cell overrun":    {0, 0, 0, 1, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF},
		"truncated":       valid[:len(valid)-1],
		"trailing":        append(append([]byte(nil), valid...), 0),
	}
}

// TestDecodeCellRowsHostileCounts: every connected client's bulk payload
// goes through DecodeCellRows, so a row or cell count the payload cannot
// hold must be rejected before anything is sized from it. A 4-byte payload
// claiming 2^28 rows once cost the server gigabytes before the truncation
// error.
func TestDecodeCellRowsHostileCounts(t *testing.T) {
	for name, payload := range hostileCellRows() {
		var err error
		n := allocatedBy(func() { _, err = DecodeCellRows(payload) })
		if !errors.Is(err, ErrBadCellRows) {
			t.Errorf("%s: err = %v, want ErrBadCellRows", name, err)
		}
		if n >= 1<<20 {
			t.Errorf("%s: decoding a %d-byte payload allocated %d bytes", name, len(payload), n)
		}
	}
}

// FuzzDecodeCellRows: hostile bytes produce an error — never a panic, and
// never an allocation sized by a count field rather than by the input.
// What does decode re-encodes to the same bytes: the framing has one
// encoding per batch.
func FuzzDecodeCellRows(f *testing.F) {
	f.Add(EncodeCellRows(sampleCellRows()))
	f.Add(EncodeCellRows(nil))
	for _, payload := range hostileCellRows() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var rows [][][]byte
		var err error
		// Decoded slices take at most 24 bytes per 2 (row) or 4 (cell)
		// payload bytes; the constant covers the runtime's own noise.
		if n := allocatedBy(func() { rows, err = DecodeCellRows(payload) }); n > 64<<10+16*uint64(len(payload)) {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes", len(payload), n)
		}
		if err != nil {
			return
		}
		if again := EncodeCellRows(rows); !bytes.Equal(again, payload) {
			t.Fatalf("decode/encode changed the payload: %x -> %x", payload, again)
		}
	})
}
