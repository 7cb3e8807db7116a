package storage

import (
	"errors"

	"alwaysencrypted/internal/wire"
)

// Multi-row record payloads. An insert statement — one row or a bulk batch —
// logs one RecHeapInsertMulti for the table and one RecIndexInsertMulti per
// index. The payloads pack into the Record.New byte field, so Serialize /
// LoadWAL and the replication wire format carry them as opaque bytes. The
// decoders sit on the redo path of every insert and read bytes that crossed
// a wire, so they read through wire.Reader.

// ErrBadBulkPayload reports a corrupt multi-row payload.
var ErrBadBulkPayload = errors.New("storage: malformed multi-row record payload")

// EncodeHeapRows packs parallel (RowID, row encoding) slices into a
// RecHeapInsertMulti payload.
func EncodeHeapRows(rids []RowID, recs [][]byte) []byte {
	size := 4
	for _, r := range recs {
		size += 8 + 4 + len(r)
	}
	out := make([]byte, 0, size)
	out = wire.AppendU32(out, uint32(len(rids)))
	for i, rid := range rids {
		out = wire.AppendU64(out, uint64(rid))
		out = wire.AppendBytes(out, recs[i])
	}
	return out
}

// DecodeHeapRows unpacks an EncodeHeapRows payload. Row slices alias it.
func DecodeHeapRows(payload []byte) ([]RowID, [][]byte, error) {
	r := wire.NewReader(payload, ErrBadBulkPayload)
	n := r.Count(12)
	rids := make([]RowID, n)
	recs := make([][]byte, n)
	for i := 0; i < n; i++ {
		rids[i] = RowID(r.U64())
		recs[i] = r.Bytes()
	}
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	return rids, recs, nil
}

// EncodeIndexEntries packs parallel (composite key, RowID) slices into a
// RecIndexInsertMulti payload.
func EncodeIndexEntries(keys [][][]byte, rids []RowID) []byte {
	size := 4
	for _, key := range keys {
		size += 8 + 4
		for _, comp := range key {
			size += 4 + len(comp)
		}
	}
	out := make([]byte, 0, size)
	out = wire.AppendU32(out, uint32(len(rids)))
	for i, key := range keys {
		out = wire.AppendU64(out, uint64(rids[i]))
		out = wire.AppendU32(out, uint32(len(key)))
		for _, comp := range key {
			out = wire.AppendBytes(out, comp)
		}
	}
	return out
}

// DecodeIndexEntries unpacks an EncodeIndexEntries payload. Key
// components alias it.
func DecodeIndexEntries(payload []byte) ([][][]byte, []RowID, error) {
	r := wire.NewReader(payload, ErrBadBulkPayload)
	n := r.Count(12)
	keys := make([][][]byte, n)
	rids := make([]RowID, n)
	for i := 0; i < n; i++ {
		rids[i] = RowID(r.U64())
		key := make([][]byte, r.Count(4))
		for j := range key {
			key[j] = r.Bytes()
		}
		keys[i] = key
	}
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	return keys, rids, nil
}
