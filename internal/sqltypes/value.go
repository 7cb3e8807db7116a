// Package sqltypes defines the SQL value model shared by the engine, the
// expression services and the client driver, together with the encryption
// type system of §4.3: encryption is an additional attribute of every SQL
// type, generalized encryption types form a lattice (Figure 6), and
// encryption type deduction is solved with a Union–Find constraint system.
package sqltypes

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the supported SQL scalar types.
type Kind uint8

const (
	KindNull     Kind = iota
	KindInt           // 64-bit signed integer (covers INT and BIGINT)
	KindFloat         // double precision
	KindString        // VARCHAR / CHAR / NVARCHAR
	KindBytes         // BINARY / VARBINARY
	KindBool          // BIT
	KindDatetime      // microseconds since epoch
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBytes:
		return "VARBINARY"
	case KindBool:
		return "BIT"
	case KindDatetime:
		return "DATETIME"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindFromTypeName maps SQL type names from DDL to Kinds.
func KindFromTypeName(name string) (Kind, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return KindInt, nil
	case "FLOAT", "REAL", "DOUBLE", "NUMERIC", "DECIMAL", "MONEY":
		return KindFloat, nil
	case "VARCHAR", "CHAR", "NVARCHAR", "NCHAR", "TEXT":
		return KindString, nil
	case "BINARY", "VARBINARY":
		return KindBytes, nil
	case "BIT", "BOOL", "BOOLEAN":
		return KindBool, nil
	case "DATETIME", "DATETIME2", "DATE", "TIMESTAMP":
		return KindDatetime, nil
	default:
		return KindNull, fmt.Errorf("sqltypes: unknown type name %q", name)
	}
}

// Value is a SQL scalar. The zero Value is SQL NULL.
type Value struct {
	Kind  Kind
	I     int64
	F     float64
	S     string
	B     []byte
	Bool_ bool
}

// Constructors.
func Null() Value                 { return Value{} }
func Int(v int64) Value           { return Value{Kind: KindInt, I: v} }
func Float(v float64) Value       { return Value{Kind: KindFloat, F: v} }
func Str(v string) Value          { return Value{Kind: KindString, S: v} }
func Bytes(v []byte) Value        { return Value{Kind: KindBytes, B: v} }
func Bool(v bool) Value           { return Value{Kind: KindBool, Bool_: v} }
func Datetime(micros int64) Value { return Value{Kind: KindDatetime, I: micros} }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// String renders the value for result display.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBytes:
		return fmt.Sprintf("0x%x", v.B)
	case KindBool:
		if v.Bool_ {
			return "1"
		}
		return "0"
	case KindDatetime:
		return strconv.FormatInt(v.I, 10)
	default:
		return "?"
	}
}

// Errors returned by value operations.
var (
	ErrTypeMismatch = errors.New("sqltypes: operand type mismatch")
	ErrNullCompare  = errors.New("sqltypes: comparison with NULL is unknown")
	ErrBadEncoding  = errors.New("sqltypes: malformed value encoding")
)

// Compare orders two non-NULL values of the same kind: -1, 0 or +1. String
// comparison uses a case-insensitive collation to mirror SQL Server's
// default collations (the enclave "inherits ES's handling of collations",
// §4.4). Comparing NULL or mismatched kinds is an error — the binder is
// responsible for inserting casts.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		return 0, ErrNullCompare
	}
	if a.Kind != b.Kind {
		// INT/FLOAT interoperate as in SQL's numeric type family.
		if a.Kind == KindInt && b.Kind == KindFloat {
			return cmpFloat(float64(a.I), b.F), nil
		}
		if a.Kind == KindFloat && b.Kind == KindInt {
			return cmpFloat(a.F, float64(b.I)), nil
		}
		// Coarse on purpose: the kinds describe decrypted operands, and
		// error strings cross the enclave boundary (§4.4.1).
		return 0, ErrTypeMismatch
	}
	switch a.Kind {
	case KindInt, KindDatetime:
		return cmpInt(a.I, b.I), nil
	case KindFloat:
		return cmpFloat(a.F, b.F), nil
	case KindString:
		return strings.Compare(collate(a.S), collate(b.S)), nil
	case KindBytes:
		return bytesCompare(a.B, b.B), nil
	case KindBool:
		x, y := 0, 0
		if a.Bool_ {
			x = 1
		}
		if b.Bool_ {
			y = 1
		}
		return cmpInt(int64(x), int64(y)), nil
	default:
		return 0, ErrTypeMismatch
	}
}

// Equal reports SQL equality of two values (NULL = anything is false).
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func bytesCompare(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return cmpInt(int64(len(a)), int64(len(b)))
}

// collate folds a string under the simplified case-insensitive collation.
func collate(s string) string { return strings.ToUpper(s) }

// Like evaluates the SQL LIKE predicate with % (any run) and _ (any single
// character) wildcards under the same case-insensitive collation.
func Like(s, pattern string) bool {
	return likeMatch(collate(s), collate(pattern))
}

func likeMatch(s, p string) bool {
	// Iterative two-pointer matching with backtracking on the last %.
	var si, pi int
	star, sMark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '%':
			star, sMark = pi, si
			pi++
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			sMark++
			si = sMark
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// HasPrefixPattern reports whether a LIKE pattern is a pure prefix match
// ("abc%"), which is the class of patterns the engine can evaluate with a
// range-index seek instead of a scan (§3.2: prefix matches via an index
// reveal ordering plus some proximity).
func HasPrefixPattern(pattern string) (prefix string, ok bool) {
	i := strings.IndexAny(pattern, "%_")
	if i < 0 || i != len(pattern)-1 || pattern[i] != '%' {
		return "", false
	}
	return pattern[:i], true
}

// PrefixKeyRange returns the inclusive bounds, in the canonical encoding,
// of the keys of every string a prefix LIKE matches: those whose collated
// text begins with prefix's. Encode files a string under kind ∥ collated
// text ∥ 0 ∥ raw text, so the seek bounds the collated text alone; the
// collated text is valid UTF-8, which never holds the byte 0xFF.
func PrefixKeyRange(prefix string) (lo, hi []byte) {
	lo = append([]byte{byte(KindString)}, collate(prefix)...)
	return lo, append(lo[:len(lo):len(lo)], 0xFF)
}

// Encode serializes a non-NULL value into the canonical order-preserving
// byte encoding: for values of one kind, bytes.Compare over encodings agrees
// with Compare over values. This single encoding serves three masters: it is
// the plaintext form handed to the cell cipher, the comparison key of
// equality (DET) indexes, and the key order of plaintext B+-trees.
func (v Value) Encode() []byte {
	// The size is exact for every kind but non-ASCII strings whose
	// upper-casing changes their length; those grow once more in append.
	var size int
	switch v.Kind {
	case KindInt, KindDatetime, KindFloat:
		size = 9
	case KindString:
		size = 2 + 2*len(v.S)
	case KindBytes:
		size = 1 + len(v.B)
	case KindBool:
		size = 2
	default:
		return nil // NULL, or no encoding
	}
	return v.AppendEncode(make([]byte, 0, size))
}

// AppendEncode appends Encode's bytes to dst and returns the extended slice:
// the encoding into a buffer the caller reuses.
func (v Value) AppendEncode(dst []byte) []byte {
	switch v.Kind {
	case KindInt, KindDatetime:
		return binary.BigEndian.AppendUint64(append(dst, byte(v.Kind)), uint64(v.I)^(1<<63))
	case KindFloat:
		bits := math.Float64bits(v.F)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		return binary.BigEndian.AppendUint64(append(dst, byte(v.Kind)), bits)
	case KindString:
		dst = append(dst, byte(v.Kind))
		dst = append(dst, collate(v.S)...)
		dst = append(dst, 0)
		return append(dst, v.S...)
	case KindBytes:
		return append(append(dst, byte(v.Kind)), v.B...)
	case KindBool:
		b := byte(0)
		if v.Bool_ {
			b = 1
		}
		return append(dst, byte(v.Kind), b)
	default:
		return dst
	}
}

// Decode parses the canonical encoding back into a Value.
func Decode(b []byte) (Value, error) {
	if len(b) == 0 {
		return Null(), nil
	}
	k := Kind(b[0])
	body := b[1:]
	switch k {
	case KindInt, KindDatetime:
		if len(body) != 8 {
			return Value{}, ErrBadEncoding
		}
		u := binary.BigEndian.Uint64(body) ^ (1 << 63)
		return Value{Kind: k, I: int64(u)}, nil
	case KindFloat:
		if len(body) != 8 {
			return Value{}, ErrBadEncoding
		}
		bits := binary.BigEndian.Uint64(body)
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return Float(math.Float64frombits(bits)), nil
	case KindString:
		i := indexByte(body, 0)
		if i < 0 {
			return Value{}, ErrBadEncoding
		}
		return Str(string(body[i+1:])), nil
	case KindBytes:
		out := make([]byte, len(body))
		copy(out, body)
		return Bytes(out), nil
	case KindBool:
		if len(body) != 1 {
			return Value{}, ErrBadEncoding
		}
		return Bool(body[0] != 0), nil
	default:
		// Coarse on purpose: b may be a decrypted cell, and echoing its
		// leading byte into the error would leak plaintext through the
		// error channel (§4.4.1).
		return Value{}, ErrBadEncoding
	}
}

func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}
