package tds

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Flat framing for bulk-insert row batches. gob handles the outer request,
// but a batch is tens of thousands of small byte slices, and reflecting
// over each one dominates the wire cost of bulk loading. EncodeCellRows
// packs the whole batch into one []byte that gob moves as a single slice:
//
//	u32 rowCount, then per row:
//	  u16 cellCount, then per cell:
//	    u32 length+1 (0 = absent/NULL cell), then the cell bytes.
//
// The +1 shift distinguishes an absent cell (nil, stored as 0) from an
// empty one (length 1 on the wire). Framing only — the cell bytes are the
// same wire encodings (ciphertext envelopes for encrypted columns) the
// nested form carried.

// ErrBadCellRows reports a malformed or truncated cell-rows payload.
var ErrBadCellRows = errors.New("tds: malformed bulk row payload")

// EncodeCellRows flattens a batch of rows into the wire framing above.
func EncodeCellRows(rows [][][]byte) []byte {
	size := 4
	for _, row := range rows {
		size += 2
		for _, cell := range row {
			size += 4 + len(cell)
		}
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rows)))
	for _, row := range rows {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(row)))
		for _, cell := range row {
			if cell == nil {
				buf = binary.BigEndian.AppendUint32(buf, 0)
				continue
			}
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(cell))+1)
			buf = append(buf, cell...)
		}
	}
	return buf
}

// DecodeCellRows parses the flat framing back into per-row cell slices.
// Cell byte slices alias the payload — callers must not retain the payload
// mutably. The payload must be exactly consumed; trailing bytes are an
// error. Every count is checked against the bytes left before anything is
// sized from it (a row takes at least 2 bytes, a cell at least 4): the
// payload comes from any connected client.
func DecodeCellRows(payload []byte) ([][][]byte, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: %d-byte payload", ErrBadCellRows, len(payload))
	}
	n := binary.BigEndian.Uint32(payload)
	off := 4
	if uint64(n)*2 > uint64(len(payload)-off) {
		return nil, fmt.Errorf("%w: %d rows in %d bytes", ErrBadCellRows, n, len(payload)-off)
	}
	rows := make([][][]byte, 0, n)
	for r := uint32(0); r < n; r++ {
		if off+2 > len(payload) {
			return nil, fmt.Errorf("%w: truncated at row %d header", ErrBadCellRows, r)
		}
		cells := int(binary.BigEndian.Uint16(payload[off:]))
		off += 2
		if cells*4 > len(payload)-off {
			return nil, fmt.Errorf("%w: row %d claims %d cells in %d bytes", ErrBadCellRows, r, cells, len(payload)-off)
		}
		row := make([][]byte, cells)
		for c := 0; c < cells; c++ {
			if off+4 > len(payload) {
				return nil, fmt.Errorf("%w: truncated at row %d cell %d", ErrBadCellRows, r, c)
			}
			l := binary.BigEndian.Uint32(payload[off:])
			off += 4
			if l == 0 {
				continue // absent cell
			}
			end := off + int(l) - 1
			if end < off || end > len(payload) {
				return nil, fmt.Errorf("%w: row %d cell %d overruns payload", ErrBadCellRows, r, c)
			}
			row[c] = payload[off:end:end]
			off = end
		}
		rows = append(rows, row)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCellRows, len(payload)-off)
	}
	return rows, nil
}
