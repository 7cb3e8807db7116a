package repl

import (
	"bytes"
	"runtime"
	"testing"

	"alwaysencrypted/internal/storage"
)

func sampleMessages() []any {
	return []any{
		&Hello{ReplicaID: "replica-1", FromLSN: 42},
		&Hello{},
		&Ack{AckLSN: 7},
		&Batch{NextLSN: 9, SentAtUnixNano: -1},
		&Batch{Err: "storage: requested LSN already truncated"},
		&Batch{NextLSN: 3, SentAtUnixNano: 1700000000, Records: []storage.Record{
			{LSN: 1, Txn: 4, Type: storage.RecBegin},
			{LSN: 2, Txn: 4, Type: storage.RecIndexInsert, Table: "ix", Key: [][]byte{[]byte("k"), nil},
				Old: []byte("o"), New: []byte("n"), DDL: "d", CLR: true, Trace: [16]byte{1}},
		}},
	}
}

// A batch carries its records in exactly the bytes the log stores them as.
func TestBatchShipsTheLogRecordLayout(t *testing.T) {
	batch := sampleMessages()[5].(*Batch)
	body := appendMessage(nil, batch)
	var recs []byte
	for i := range batch.Records {
		recs = storage.AppendRecord(recs, &batch.Records[i])
	}
	if !bytes.HasSuffix(body, recs) {
		t.Fatal("batch records are not in the log's record layout")
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

// FuzzDecodeReplMessage: the primary decodes Hello/Ack bytes from any
// replica, and a replica decodes Batch bytes from its primary. No input
// panics, allocates beyond a small multiple of its length, or decodes to a
// message that re-encodes differently.
func FuzzDecodeReplMessage(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(appendMessage(nil, m))
	}
	f.Add([]byte{tagBatch, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, body []byte) {
		var msg any
		var err error
		if n := allocatedBy(func() { msg, err = decodeMessage(body) }); n > 64<<10+32*uint64(len(body)) {
			t.Fatalf("decoding %d bytes allocated %d", len(body), n)
		}
		if err != nil {
			return
		}
		if again := appendMessage(nil, msg); !bytes.Equal(again, body) {
			t.Fatalf("decode/encode changed the message: %x -> %x", body, again)
		}
	})
}
