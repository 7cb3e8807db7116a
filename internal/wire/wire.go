// Package wire is the one byte codec behind every format that crosses a
// trust edge (DESIGN.md, "Wire format"): big-endian integers, append-style
// encoders, and a Reader that holds the rule in one place — a length or
// count read from untrusted bytes sizes nothing until the bytes left can
// hold it. Decoded byte slices alias the input, capacity clipped; strings
// are copied.
package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Reader decodes a byte slice front to back. Errors are sticky: after the
// first failure every read returns a zero value and Done reports the
// failure, so a decoder reads its whole layout and checks once.
type Reader struct {
	b   []byte
	bad error
	err error
}

// NewReader reads b, reporting every malformation as (a wrap of) bad.
func NewReader(b []byte, bad error) Reader { return Reader{b: b, bad: bad} }

// Fail records a decoder-level malformation (the first failure wins).
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{r.bad}, args...)...)
		r.b = nil
	}
}

// Done reports the first failure, or a failure if bytes remain unread:
// every format has exactly one encoding per value, so trailing bytes are
// malformed.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.Fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// Take returns the next n bytes, aliasing the input; n == 0 yields nil.
// After a failure the input is empty, so every later read fails too.
func (r *Reader) Take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.short()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// U8, U16, U32 and U64 read fixed-width integers (zero after a failure).
func (r *Reader) U8() uint8   { return r.fixed(1)[0] }
func (r *Reader) U16() uint16 { return binary.BigEndian.Uint16(r.fixed(2)) }
func (r *Reader) U32() uint32 { return binary.BigEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64 { return binary.BigEndian.Uint64(r.fixed(8)) }

var zeros [8]byte

func (r *Reader) fixed(n int) []byte {
	if n > len(r.b) {
		r.short()
		return zeros[:n]
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// short records a field or count longer than the bytes left can hold. It is
// cheap enough to inline, which keeps the read paths inlinable.
func (r *Reader) short() {
	if r.err == nil {
		r.err = r.bad
	}
	r.b = nil
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Fail("bool byte %d", v)
	}
	return v == 1
}

// Bytes reads a u32 length and that many bytes (nil when empty).
func (r *Reader) Bytes() []byte { return r.Take(uint64(r.U32())) }

// String reads a u32 length and that many bytes as a string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Count reads a u32 element count whose elements each take at least
// minElem encoded bytes, and rejects it unless the bytes left can hold that
// many. minElem must be at least 1.
func (r *Reader) Count(minElem int) int { return r.fit(uint64(r.U32()), minElem) }

// Count16 is Count for a u16 count.
func (r *Reader) Count16(minElem int) int { return r.fit(uint64(r.U16()), minElem) }

// Count64 is Count for a u64 count.
func (r *Reader) Count64(minElem int) int { return r.fit(r.U64(), minElem) }

func (r *Reader) fit(n uint64, minElem int) int {
	if n > uint64(len(r.b)/minElem) {
		r.short()
		return 0
	}
	return int(n)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendU16, AppendU32 and AppendU64 append fixed-width integers.
func AppendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendBytes appends a u32 length and v.
func AppendBytes(b, v []byte) []byte { return append(AppendU32(b, uint32(len(v))), v...) }

// AppendString appends a u32 length and s.
func AppendString(b []byte, s string) []byte { return append(AppendU32(b, uint32(len(s))), s...) }

// AppendList appends a u32 count and each element.
func AppendList[T any](b []byte, xs []T, appendElem func([]byte, T) []byte) []byte {
	b = AppendU32(b, uint32(len(xs)))
	for _, x := range xs {
		b = appendElem(b, x)
	}
	return b
}

// ReadList reads an AppendList encoding whose elements take at least
// minElem bytes each; an empty list reads as nil.
func ReadList[T any](r *Reader, minElem int, readElem func(*Reader) T) []T {
	n := r.Count(minElem)
	if n == 0 {
		return nil
	}
	xs := make([]T, n)
	for i := range xs {
		xs[i] = readElem(r)
	}
	return xs
}

// AppendMap appends a u32 count and m's (name, value) entries in increasing
// name order — the one order ReadMap accepts.
func AppendMap[V any](b []byte, m map[string]V, appendValue func([]byte, V) []byte) []byte {
	var buf [16]string
	names := buf[:0]
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	b = AppendU32(b, uint32(len(names)))
	for _, name := range names {
		b = appendValue(AppendString(b, name), m[name])
	}
	return b
}

// ReadMap reads an AppendMap encoding whose entries take at least minEntry
// bytes each; an empty map reads as nil.
func ReadMap[V any](r *Reader, minEntry int, readValue func(*Reader) V) map[string]V {
	n := r.Count(minEntry)
	if n == 0 {
		return nil
	}
	m := make(map[string]V, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		name := r.String()
		if i > 0 && name <= prev {
			r.Fail("map entry %q after %q", name, prev)
		}
		m[name], prev = readValue(r), name
	}
	return m
}
