package storage

import (
	"bytes"
	"errors"
	"testing"
)

func TestHeapRowsRoundTrip(t *testing.T) {
	rids := []RowID{3, 9, 1 << 40}
	recs := [][]byte{[]byte("alpha"), {}, []byte("gamma-longer-payload")}
	payload := EncodeHeapRows(rids, recs)
	gotRids, gotRecs, err := DecodeHeapRows(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRids) != len(rids) {
		t.Fatalf("decoded %d rows, want %d", len(gotRids), len(rids))
	}
	for i := range rids {
		if gotRids[i] != rids[i] || !bytes.Equal(gotRecs[i], recs[i]) {
			t.Fatalf("row %d: (%d,%q), want (%d,%q)", i, gotRids[i], gotRecs[i], rids[i], recs[i])
		}
	}
}

func TestIndexEntriesRoundTrip(t *testing.T) {
	keys := [][][]byte{
		{[]byte("k1"), []byte("comp2")},
		{[]byte("solo")},
	}
	rids := []RowID{7, 8}
	payload := EncodeIndexEntries(keys, rids)
	gotKeys, gotRids, err := DecodeIndexEntries(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotKeys) != 2 || gotRids[0] != 7 || gotRids[1] != 8 {
		t.Fatalf("decoded %d entries, rids %v", len(gotKeys), gotRids)
	}
	for i := range keys {
		if len(gotKeys[i]) != len(keys[i]) {
			t.Fatalf("entry %d: %d components, want %d", i, len(gotKeys[i]), len(keys[i]))
		}
		for j := range keys[i] {
			if !bytes.Equal(gotKeys[i][j], keys[i][j]) {
				t.Fatalf("entry %d comp %d: %q, want %q", i, j, gotKeys[i][j], keys[i][j])
			}
		}
	}
}

// malformedBulkPayloads are truncated, overrun and trailing-garbage payloads;
// names starting with 'h' are heap payloads, the rest index payloads. They
// seed the fuzz targets below as well.
func malformedBulkPayloads() map[string][]byte {
	heap := EncodeHeapRows([]RowID{1, 2}, [][]byte{[]byte("aa"), []byte("bb")})
	index := EncodeIndexEntries([][][]byte{{[]byte("k")}}, []RowID{1})
	return map[string][]byte{
		"heap empty":           {},
		"heap truncated count": heap[:3],
		"heap truncated row":   heap[:len(heap)-1],
		"heap trailing bytes":  append(append([]byte(nil), heap...), 0xFF),
		"heap huge count":      {0xFF, 0xFF, 0xFF, 0xFF},
		"index truncated":      index[:len(index)-2],
		"index trailing":       append(append([]byte(nil), index...), 0),
		"index huge count":     {0xFF, 0xFF, 0xFF, 0xFF},
	}
}

// TestDecodeBulkMalformed: malformed payloads must all surface
// ErrBadBulkPayload, never panic, misparse or size an allocation from a
// count the payload cannot back.
func TestDecodeBulkMalformed(t *testing.T) {
	for name, payload := range malformedBulkPayloads() {
		var err error
		if name[0] == 'h' {
			_, _, err = DecodeHeapRows(payload)
		} else {
			_, _, err = DecodeIndexEntries(payload)
		}
		if !errors.Is(err, ErrBadBulkPayload) {
			t.Fatalf("%s: err = %v, want ErrBadBulkPayload", name, err)
		}
	}
}

// The fuzz targets cover the byte-level decoders on the redo path: every
// insert statement's records go through DecodeHeapRows / DecodeIndexEntries
// on a replica, and LoadWAL reads a whole log from storage. Hostile bytes
// must produce an error — never a panic, and never an allocation sized by a
// count field rather than by the input. What does decode must re-encode to
// the same bytes: the formats have one encoding per value.

func FuzzDecodeHeapRows(f *testing.F) {
	f.Add(EncodeHeapRows([]RowID{3, 9, 1 << 40}, [][]byte{[]byte("alpha"), {}, []byte("gamma")}))
	for _, payload := range malformedBulkPayloads() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rids, recs, err := DecodeHeapRows(payload)
		if err != nil {
			return
		}
		if cap(rids) > len(payload)/12 || cap(recs) > len(payload)/12 {
			t.Fatalf("%d-byte payload allocated room for %d rows", len(payload), cap(rids))
		}
		if again := EncodeHeapRows(rids, recs); !bytes.Equal(again, payload) {
			t.Fatalf("decode/encode changed the payload: %x -> %x", payload, again)
		}
	})
}

func FuzzDecodeIndexEntries(f *testing.F) {
	f.Add(EncodeIndexEntries([][][]byte{{[]byte("k1"), []byte("comp2")}, {nil}, {}}, []RowID{7, 8, 9}))
	for _, payload := range malformedBulkPayloads() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		keys, rids, err := DecodeIndexEntries(payload)
		if err != nil {
			return
		}
		if cap(keys) > len(payload)/12 || cap(rids) > len(payload)/12 {
			t.Fatalf("%d-byte payload allocated room for %d entries", len(payload), cap(keys))
		}
		for _, key := range keys {
			if cap(key) > len(payload)/4 {
				t.Fatalf("%d-byte payload allocated room for %d key components", len(payload), cap(key))
			}
		}
		if again := EncodeIndexEntries(keys, rids); !bytes.Equal(again, payload) {
			t.Fatalf("decode/encode changed the payload: %x -> %x", payload, again)
		}
	})
}

func FuzzLoadWAL(f *testing.F) {
	w := NewWAL()
	w.Append(Record{Txn: 1, Type: RecBegin})
	w.Append(Record{Txn: 1, Type: RecHeapInsertMulti, Table: "t", Row: NewRowID(1, 0),
		New: EncodeHeapRows([]RowID{NewRowID(1, 0)}, [][]byte{[]byte("row")})})
	w.Append(Record{Txn: 1, Type: RecIndexDelete, Table: "ix", Row: NewRowID(1, 0),
		Key: [][]byte{[]byte("k1"), nil}, CLR: true})
	w.Append(Record{Txn: 1, Type: RecDDL, DDL: "CREATE TABLE t (id int PRIMARY KEY)"})
	w.AppendCommitGroup(Record{Txn: 1, Type: RecCommit}, 0)
	ser := w.Serialize()
	f.Add(ser)
	f.Add(ser[:len(ser)/2])
	f.Add(NewWAL().Serialize())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadWAL(data)
		if err != nil {
			return
		}
		// The smallest serialized record is 90 bytes; a log cannot hold more
		// records than its bytes pay for.
		if n := got.Len(); n > len(data)/90 {
			t.Fatalf("%d-byte log decoded to %d records", len(data), n)
		}
		again, err := LoadWAL(got.Serialize())
		if err != nil || again.Len() != got.Len() || again.NextLSN() != got.NextLSN() {
			t.Fatalf("reserialized log does not load back: %v", err)
		}
	})
}
