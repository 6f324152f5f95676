// Package val defines the engine's typed values, comparison rules, the
// order-preserving hash used by the histogram infrastructure (§3.1), and
// row encoding.
package val

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Kind enumerates value types. Dates and times are represented as Int
// microseconds since the epoch; the histogram hash for numeric types is a
// simple conversion to double precision, exactly as §3.1 prescribes.
type Kind uint8

const (
	KNull Kind = iota
	KInt
	KDouble
	KStr
)

func (k Kind) String() string {
	switch k {
	case KNull:
		return "NULL"
	case KInt:
		return "INT"
	case KDouble:
		return "DOUBLE"
	case KStr:
		return "STRING"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is a single SQL value. The zero value is SQL NULL.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{Kind: KInt, I: v} }

// NewDouble returns a DOUBLE value.
func NewDouble(v float64) Value { return Value{Kind: KDouble, F: v} }

// NewStr returns a STRING value.
func NewStr(v string) Value { return Value{Kind: KStr, S: v} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KNull }

// AsFloat returns the numeric value as a float64 (0 for NULL/strings that
// do not parse).
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KInt:
		return float64(v.I)
	case KDouble:
		return v.F
	case KStr:
		f, _ := strconv.ParseFloat(v.S, 64)
		return f
	}
	return 0
}

// AsInt returns the value as an int64.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KInt:
		return v.I
	case KDouble:
		return int64(v.F)
	case KStr:
		n, _ := strconv.ParseInt(v.S, 10, 64)
		return n
	}
	return 0
}

func (v Value) String() string {
	switch v.Kind {
	case KNull:
		return "NULL"
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KDouble:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KStr:
		return v.S
	}
	return "?"
}

// Compare orders two values: NULL sorts before everything; numeric kinds
// compare numerically across Int/Double; strings compare bytewise. Values
// of incomparable kinds order by kind tag (deterministic, never equal).
func Compare(a, b Value) int {
	if a.Kind == KNull || b.Kind == KNull {
		switch {
		case a.Kind == KNull && b.Kind == KNull:
			return 0
		case a.Kind == KNull:
			return -1
		default:
			return 1
		}
	}
	an := a.Kind == KInt || a.Kind == KDouble
	bn := b.Kind == KInt || b.Kind == KDouble
	switch {
	case an && bn:
		if a.Kind == KInt && b.Kind == KInt {
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			}
			return 0
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	case a.Kind == KStr && b.Kind == KStr:
		return strings.Compare(a.S, b.S)
	}
	// Incomparable kinds: deterministic order by tag.
	switch {
	case a.Kind < b.Kind:
		return -1
	case a.Kind > b.Kind:
		return 1
	}
	return 0
}

// OrderHash maps a value into a double such that v1 < v2 implies
// OrderHash(v1) <= OrderHash(v2). For numeric types (including the
// date/time encodings) it is simply the conversion to double precision;
// for short strings it packs the leading bytes into an integer, as §3.1
// describes. NULL maps to -Inf.
func OrderHash(v Value) float64 {
	switch v.Kind {
	case KInt:
		return float64(v.I)
	case KDouble:
		return v.F
	case KStr:
		var x uint64
		for i := 0; i < 7; i++ {
			x <<= 8
			if i < len(v.S) {
				x |= uint64(v.S[i])
			}
		}
		return float64(x)
	}
	return math.Inf(-1)
}

// Width returns the value-width assigned to each data type: the difference
// between two consecutive values of the domain (§3.1 gives INT=1 and
// REAL=1e-35; strings use the granularity of the packed-byte hash).
func Width(k Kind) float64 {
	switch k {
	case KInt:
		return 1
	case KDouble:
		return 1e-35
	case KStr:
		return 1 // one step of the packed low byte
	}
	return 1
}

// Hash64 returns a non-order-preserving 64-bit hash for hash joins,
// grouping, and the long-string statistics infrastructure. Numeric values
// that compare equal hash equal (Int/Double canonicalize through float64).
func Hash64(v Value) uint64 {
	h := fnv.New64a()
	var b [9]byte
	switch v.Kind {
	case KNull:
		b[0] = 0
		h.Write(b[:1])
	case KInt, KDouble:
		b[0] = 1
		binary.LittleEndian.PutUint64(b[1:], math.Float64bits(v.AsFloat()))
		h.Write(b[:9])
	case KStr:
		b[0] = 2
		h.Write(b[:1])
		h.Write([]byte(v.S))
	}
	return h.Sum64()
}

// HashRow combines the hashes of key columns for multi-column keys.
func HashRow(vals []Value) uint64 {
	h := uint64(1469598103934665603)
	for i := range vals {
		// Handed over field by field, not as a copy of vals[i]: a key that
		// was just written field by field (a group-by boxing a typed
		// column) is then read back at the widths it was written with,
		// which the CPU forwards from its pending stores instead of
		// stalling until they drain.
		v := &vals[i]
		h ^= Hash64(Value{Kind: v.Kind, I: v.I, F: v.F, S: v.S})
		h *= 1099511628211
	}
	return h
}

// EncodeRow serializes a row of values. The encoding is byte-order stable
// (database files are portable across CPU architectures, §1).
func EncodeRow(row []Value) []byte {
	return AppendRow(nil, row)
}

// AppendRow appends a row's encoding to dst.
func AppendRow(dst []byte, row []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = append(dst, byte(v.Kind))
		switch v.Kind {
		case KInt:
			dst = binary.AppendVarint(dst, v.I)
		case KDouble:
			dst = binary.AppendUvarint(dst, math.Float64bits(v.F))
		case KStr:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		}
	}
	return dst
}

// RowSize reports len(EncodeRow(row)) without building the encoding: the
// figure memory accounting charges for a row held as Go values.
func RowSize(row []Value) int {
	n := uvarintLen(uint64(len(row))) + len(row)
	for _, v := range row {
		switch v.Kind {
		case KInt:
			n += uvarintLen(uint64(v.I)<<1 ^ uint64(v.I>>63))
		case KDouble:
			n += uvarintLen(math.Float64bits(v.F))
		case KStr:
			n += uvarintLen(uint64(len(v.S))) + len(v.S)
		}
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// DecodeRow deserializes a row produced by EncodeRow.
func DecodeRow(data []byte) ([]Value, error) {
	row, rest, err := DecodeRowPrefix(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("val: %d trailing bytes after row", len(rest))
	}
	return row, nil
}

// DecodeRowPrefix decodes one row from the front of data and returns the
// remaining bytes.
func DecodeRowPrefix(data []byte) ([]Value, []byte, error) {
	return AppendRowPrefix(nil, data)
}

// AppendRowPrefix is DecodeRowPrefix into a slice the caller keeps: the
// row's values are appended to dst, and the extended slice is returned (dst
// as it was, on an error). A string is still a string of its own.
func AppendRowPrefix(dst []Value, data []byte) ([]Value, []byte, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return dst, nil, fmt.Errorf("val: truncated row header")
	}
	data = data[sz:]
	if n > uint64(len(data)) { // every value takes at least its kind byte
		return dst, nil, fmt.Errorf("val: truncated value kind")
	}
	start := len(dst)
	if dst == nil {
		dst = make([]Value, 0, n)
	}
	dst = slices.Grow(dst, int(n))[:start+int(n)]
	row := dst[start:]
	for i := range row {
		if len(data) == 0 {
			return dst[:start], nil, fmt.Errorf("val: truncated value kind")
		}
		k := Kind(data[0])
		data = data[1:]
		switch k {
		case KNull:
			row[i] = Null
		case KInt:
			v, sz := binary.Varint(data)
			if sz <= 0 {
				return dst[:start], nil, fmt.Errorf("val: truncated int")
			}
			data = data[sz:]
			row[i] = NewInt(v)
		case KDouble:
			v, sz := binary.Uvarint(data)
			if sz <= 0 {
				return dst[:start], nil, fmt.Errorf("val: truncated double")
			}
			data = data[sz:]
			row[i] = NewDouble(math.Float64frombits(v))
		case KStr:
			l, sz := binary.Uvarint(data)
			if sz <= 0 || uint64(len(data)-sz) < l {
				return dst[:start], nil, fmt.Errorf("val: truncated string")
			}
			data = data[sz:]
			row[i] = NewStr(string(data[:l]))
			data = data[l:]
		default:
			return dst[:start], nil, fmt.Errorf("val: bad kind %d", k)
		}
	}
	return dst, data, nil
}

// EncodeKey serializes values into a byte string whose bytewise order
// matches Compare order, for use as B+-tree keys. Layout per value:
// kind-class byte, then an order-preserving payload.
func EncodeKey(vals []Value) []byte {
	var dst []byte
	for _, v := range vals {
		dst = AppendKey(dst, v)
	}
	return dst
}

// AppendKey appends v's part of an EncodeKey key to dst: EncodeKey of
// several values is AppendKey of each in turn.
func AppendKey(dst []byte, v Value) []byte {
	switch v.Kind {
	case KNull:
		dst = append(dst, 0x00)
	case KInt, KDouble:
		bits := math.Float64bits(v.AsFloat())
		// Flip for total order: negative floats reverse, positives set sign.
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		dst = binary.BigEndian.AppendUint64(append(dst, 0x01), bits)
	case KStr:
		dst = append(dst, 0x02)
		// Escape 0x00 as 0x00 0xFF, terminate with 0x00 0x00 so that
		// prefixes order correctly.
		for i := 0; i < len(v.S); i++ {
			c := v.S[i]
			dst = append(dst, c)
			if c == 0x00 {
				dst = append(dst, 0xFF)
			}
		}
		dst = append(dst, 0x00, 0x00)
	}
	return dst
}

// LikeMatch evaluates a SQL LIKE pattern (% and _ wildcards, no escapes)
// against s.
func LikeMatch(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Iterative two-pointer matcher with backtracking on %.
	var si, pi int
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star, ss = pi, si
			pi++
		case star >= 0:
			ss++
			si, pi = ss, star+1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// Words splits a string into "words" — any sequences of characters
// separated by white space — for the per-word LIKE statistics of §3.1.
func Words(s string) []string {
	return strings.Fields(s)
}
