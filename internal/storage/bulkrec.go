package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Multi-row record payloads. An insert statement — one row or a bulk batch —
// logs one RecHeapInsertMulti for the table and one RecIndexInsertMulti per
// index. The payloads pack into the Record.New byte field, so Serialize /
// LoadWAL and the replication wire format carry them as opaque bytes. The
// decoders sit on the redo path of every insert and read bytes that crossed
// a wire: a count field never sizes an allocation beyond what the payload
// itself could hold.

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
	out = binary.BigEndian.AppendUint32(out, uint32(len(rids)))
	for i, rid := range rids {
		out = binary.BigEndian.AppendUint64(out, uint64(rid))
		out = binary.BigEndian.AppendUint32(out, uint32(len(recs[i])))
		out = append(out, recs[i]...)
	}
	return out
}

// DecodeHeapRows unpacks an EncodeHeapRows payload.
func DecodeHeapRows(payload []byte) ([]RowID, [][]byte, error) {
	if len(payload) < 4 {
		return nil, nil, ErrBadBulkPayload
	}
	n := binary.BigEndian.Uint32(payload)
	payload = payload[4:]
	if uint64(n)*12 > uint64(len(payload)) {
		return nil, nil, ErrBadBulkPayload
	}
	rids := make([]RowID, 0, n)
	recs := make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(payload) < 12 {
			return nil, nil, ErrBadBulkPayload
		}
		rid := RowID(binary.BigEndian.Uint64(payload))
		sz := binary.BigEndian.Uint32(payload[8:])
		payload = payload[12:]
		if uint32(len(payload)) < sz {
			return nil, nil, ErrBadBulkPayload
		}
		rids = append(rids, rid)
		recs = append(recs, payload[:sz:sz])
		payload = payload[sz:]
	}
	if len(payload) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrBadBulkPayload, len(payload))
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
	out = binary.BigEndian.AppendUint32(out, uint32(len(rids)))
	for i, key := range keys {
		out = binary.BigEndian.AppendUint64(out, uint64(rids[i]))
		out = binary.BigEndian.AppendUint32(out, uint32(len(key)))
		for _, comp := range key {
			out = binary.BigEndian.AppendUint32(out, uint32(len(comp)))
			out = append(out, comp...)
		}
	}
	return out
}

// DecodeIndexEntries unpacks an EncodeIndexEntries payload.
func DecodeIndexEntries(payload []byte) ([][][]byte, []RowID, error) {
	if len(payload) < 4 {
		return nil, nil, ErrBadBulkPayload
	}
	n := binary.BigEndian.Uint32(payload)
	payload = payload[4:]
	if uint64(n)*12 > uint64(len(payload)) {
		return nil, nil, ErrBadBulkPayload
	}
	keys := make([][][]byte, 0, n)
	rids := make([]RowID, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(payload) < 12 {
			return nil, nil, ErrBadBulkPayload
		}
		rid := RowID(binary.BigEndian.Uint64(payload))
		nc := binary.BigEndian.Uint32(payload[8:])
		payload = payload[12:]
		if nc > 64 || int(nc)*4 > len(payload) {
			return nil, nil, ErrBadBulkPayload
		}
		key := make([][]byte, 0, nc)
		for j := uint32(0); j < nc; j++ {
			if len(payload) < 4 {
				return nil, nil, ErrBadBulkPayload
			}
			sz := binary.BigEndian.Uint32(payload)
			payload = payload[4:]
			if uint32(len(payload)) < sz {
				return nil, nil, ErrBadBulkPayload
			}
			key = append(key, payload[:sz:sz])
			payload = payload[sz:]
		}
		keys = append(keys, key)
		rids = append(rids, rid)
	}
	if len(payload) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrBadBulkPayload, len(payload))
	}
	return keys, rids, nil
}
