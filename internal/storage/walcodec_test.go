package storage

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"
)

// goldenWAL is a log exercising every record field: the serialized layout is
// a fixed point (logs at rest and the replication stream share it).
func goldenWAL() *WAL {
	w := NewWAL()
	w.Append(Record{Txn: 7, Type: RecBegin})
	w.Append(Record{Txn: 7, Type: RecHeapUpdate, Table: "t", Row: NewRowID(3, 1), NewRow: NewRowID(4, 2),
		Old: []byte("old"), New: []byte("new")})
	w.Append(Record{Txn: 7, Type: RecIndexInsert, Table: "ix", Row: NewRowID(3, 1),
		Key: [][]byte{[]byte("k1"), nil, []byte("k3")}, CLR: true,
		Trace: [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}})
	w.Append(Record{Type: RecDDL, DDL: "CREATE TABLE t (id int PRIMARY KEY)"})
	w.Append(Record{Txn: 7, Type: RecCommit})
	return w
}

const goldenWALHex = "" +
	"000000000000000600000000000000050000000000000001000000000000000701000000" +
	"000000000000000000000000000000000000000000000000000000000000000000000000" +
	"000000000000000000000000000000000000000000000000000000000000000000000000" +
	"000000000002000000000000000706000000000000000174000000000003000100000000" +
	"00040002000000000000000000000000000000036f6c6400000000000000036e65770000" +
	"000000000000000000000000000000000000000000000000000000000000030000000000" +
	"000007070000000000000002697800000000000300010000000000000000000000000000" +
	"000300000000000000026b31000000000000000000000000000000026b33000000000000" +
	"000000000000000000000000000000000000010102030405060708090a0b0c0d0e0f1000" +
	"0000000000000400000000000000000a0000000000000000000000000000000000000000" +
	"000000000000000000000000000000000000000000000000000000000000000000000023" +
	"435245415445205441424c4520742028696420696e74205052494d415259204b45592900" +
	"000000000000000000000000000000000000000000000005000000000000000702000000" +
	"000000000000000000000000000000000000000000000000000000000000000000000000" +
	"00000000000000000000000000000000000000000000000000000000000000000000"

// TestWALSerializeGolden pins Serialize's bytes.
func TestWALSerializeGolden(t *testing.T) {
	got := hex.EncodeToString(goldenWAL().Serialize())
	if got != goldenWALHex {
		t.Fatalf("Serialize output changed:\n got %s\nwant %s", got, goldenWALHex)
	}
}

// A log whose records do not carry strictly increasing LSNs, or whose
// header's next LSN does not lie beyond the last record, would hand out an
// LSN that already exists: LoadWAL refuses it.
func TestLoadWALRejectsReusedLSNs(t *testing.T) {
	w := NewWAL()
	for i := 0; i < 3; i++ {
		w.Append(Record{Type: RecCheckpoint})
	}
	good := w.Serialize()
	if _, err := LoadWAL(good); err != nil {
		t.Fatal(err)
	}
	// Record i's LSN sits after the 16-byte header and i 90-byte records.
	patch := func(off int, v uint64) []byte {
		b := append([]byte(nil), good...)
		binary.BigEndian.PutUint64(b[off:], v)
		return b
	}
	for name, data := range map[string][]byte{
		"next LSN 1":          patch(0, 1),
		"next LSN = last":     patch(0, 3),
		"duplicate LSN":       patch(16+90, 1),
		"decreasing LSN":      patch(16+2*90, 1),
		"equal neighbour LSN": patch(16+2*90, 2),
	} {
		if _, err := LoadWAL(data); !errors.Is(err, ErrBadWAL) {
			t.Errorf("%s: err = %v, want ErrBadWAL", name, err)
		}
	}
	w2, err := LoadWAL(good)
	if err != nil {
		t.Fatal(err)
	}
	if lsn := w2.Append(Record{Type: RecCheckpoint}); lsn != 4 {
		t.Fatalf("Append after load = LSN %d, want 4", lsn)
	}
}
