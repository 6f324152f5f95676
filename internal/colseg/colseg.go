// Package colseg implements immutable column-group segments: the columnar
// half of the self-managing storage layer. A segment holds a fixed window
// of a table's rows as per-column vectors under lightweight encodings
// (dictionary for low-cardinality strings, run-length for runs, bit-packed
// deltas for narrow integers, raw fallback), plus a min/max zone map per
// column so a selective col<op>const predicate can skip a whole segment
// before any value is decoded.
//
// Segments are built from the row heap and never mutated: any update or
// delete to a covered row invalidates the table's segments and the scan
// falls back to the heap, which remains authoritative at all times. Rows
// inserted after a build live in a delta tail of heap pages scanned
// alongside the sealed segments, so the columnar layout is an acceleration
// structure, not a second source of truth.
package colseg

import (
	"anywheredb/internal/val"
)

// Encoding enumerates the per-chunk physical encodings.
type Encoding uint8

const (
	// EncRaw stores the values verbatim.
	EncRaw Encoding = iota
	// EncDict stores a ≤256-entry string dictionary plus one code byte per
	// row.
	EncDict
	// EncRLE stores (value, run length) pairs; NULL runs are first-class.
	EncRLE
	// EncBitPack stores integers as fixed-width offsets from a base value,
	// packed into 64-bit words.
	EncBitPack
)

var encNames = [...]string{"raw", "dict", "rle", "bitpack"}

func (e Encoding) String() string {
	if int(e) < len(encNames) {
		return encNames[e]
	}
	return "enc?"
}

// DefaultSegmentRows is the number of rows sealed into one segment. Small
// enough that zone maps are selective on clustered data, large enough that
// per-segment overheads amortize away.
const DefaultSegmentRows = 8192

// dictMaxCard is the largest dictionary EncDict will build; codes are one
// byte.
const dictMaxCard = 256

// bitPackMaxWidth caps the packed width: beyond this raw storage is as
// compact and cheaper to decode.
const bitPackMaxWidth = 40

// ValueKind is what a chunk's non-NULL values are, which decides the form a
// reader decodes it into. It is derived from the values, at seal and at
// load, and is not stored.
type ValueKind uint8

const (
	// Mixed is any chunk not typed below: strings, or more than one kind.
	// It decodes boxed, through DecodeRange.
	Mixed ValueKind = iota
	// Ints: every non-NULL value is KInt (so is a chunk of NULLs only).
	// It decodes through DecodeInts.
	Ints
	// Doubles: every non-NULL value is KDouble. It decodes through
	// DecodeDoubles.
	Doubles
)

// valueKind derives the ValueKind of a list of values.
func valueKind(vals []val.Value) ValueKind {
	allInt, allDouble := true, true
	for _, v := range vals {
		allInt = allInt && (v.Kind == val.KInt || v.Kind == val.KNull)
		allDouble = allDouble && (v.Kind == val.KDouble || v.Kind == val.KNull)
	}
	return kindOf(allInt, allDouble)
}

func kindOf(allInt, allDouble bool) ValueKind {
	switch {
	case allInt:
		return Ints
	case allDouble:
		return Doubles
	}
	return Mixed
}

// Chunk is one column's vector inside a segment.
type Chunk struct {
	Kind  val.Kind
	Enc   Encoding
	N     int
	VKind ValueKind

	// Nulls is a bitmap (bit i set = row i is NULL); nil when the chunk has
	// no NULLs or when the encoding carries NULLs itself (EncRLE).
	Nulls []uint64

	// HasZone is false when the chunk holds no non-NULL values; Min/Max are
	// then meaningless.
	HasZone  bool
	Min, Max val.Value

	// Payloads; which are populated depends on Enc.
	Vals    []val.Value // EncRaw
	Dict    []string    // EncDict: code → string
	Codes   []byte      // EncDict: one code per row
	RunVals []val.Value // EncRLE: run values (may be NULL)
	RunLens []uint32    // EncRLE: run lengths
	Base    int64       // EncBitPack
	Width   uint8       // EncBitPack: bits per value (1..bitPackMaxWidth)
	Words   []uint64    // EncBitPack: packed payload
}

// Segment is an immutable window of rows in columnar form.
type Segment struct {
	NumRows int
	Cols    []Chunk
}

// nullAt tests the chunk's null bitmap.
func nullAt(bm []uint64, i int) bool {
	if bm == nil {
		return false
	}
	return bm[i>>6]&(1<<(uint(i)&63)) != 0
}

func setNull(bm []uint64, i int) { bm[i>>6] |= 1 << (uint(i) & 63) }

// MayMatch reports whether any row of the segment could satisfy
// "col <op> const" under SQL three-valued semantics (NULL comparisons are
// Unknown and never satisfy a filter). A false return is a proof that the
// whole segment can be skipped; a true return promises nothing — the exact
// Filter above the scan still runs. The ops mirror exec's vectorized
// comparison fast path.
func (s *Segment) MayMatch(col int, op string, k val.Value) bool {
	if col < 0 || col >= len(s.Cols) {
		return true // unknown column: never skip
	}
	c := &s.Cols[col]
	if k.Kind == val.KNull {
		// col <op> NULL is Unknown for every row: nothing matches.
		return false
	}
	if !c.HasZone {
		// Every value is NULL: every comparison is Unknown.
		return false
	}
	lo := val.Compare(k, c.Min) // <0: k below range, 0: at min
	hi := val.Compare(k, c.Max)
	switch op {
	case "=":
		return lo >= 0 && hi <= 0
	case "<>":
		// Only unskippable case: every non-NULL value equals k.
		return !(lo == 0 && hi == 0)
	case "<":
		return val.Compare(c.Min, k) < 0
	case "<=":
		return val.Compare(c.Min, k) <= 0
	case ">":
		return val.Compare(c.Max, k) > 0
	case ">=":
		return val.Compare(c.Max, k) >= 0
	}
	return true // unknown operator: never skip
}

// DecodeRange materializes rows [from, from+n) of the chunk into dst[:n]:
// the windowed, column-major decode a vectored scan reads one column of one
// window with. Decoding is a tight per-encoding loop — no per-row varint
// parsing and no per-row allocation, which is where the columnar scan's
// speed over the heap path comes from.
func (c *Chunk) DecodeRange(dst []val.Value, from, n int) {
	switch c.Enc {
	case EncRaw:
		for i, v := range c.Vals[from : from+n] {
			dst[i] = v
		}
	case EncDict:
		for i := 0; i < n; i++ {
			if nullAt(c.Nulls, from+i) {
				dst[i] = val.Value{}
				continue
			}
			dst[i] = val.Value{Kind: val.KStr, S: c.Dict[c.Codes[from+i]]}
		}
	case EncRLE:
		r, skip := c.runAt(from)
		for pos := 0; pos < n; r++ {
			v := c.RunVals[r]
			for j := min(int(c.RunLens[r])-skip, n-pos); j > 0; j-- {
				dst[pos] = v
				pos++
			}
			skip = 0
		}
	case EncBitPack:
		mask := uint64(1)<<c.Width - 1
		bit := uint(from) * uint(c.Width)
		for i := 0; i < n; i++ {
			word := bit >> 6
			off := bit & 63
			raw := c.Words[word] >> off
			if off+uint(c.Width) > 64 {
				raw |= c.Words[word+1] << (64 - off)
			}
			bit += uint(c.Width)
			if nullAt(c.Nulls, from+i) {
				dst[i] = val.Value{}
				continue
			}
			dst[i] = val.Value{Kind: val.KInt, I: c.Base + int64(raw&mask)}
		}
	}
}

// DecodeInts is DecodeRange for an Ints chunk, unboxed: rows
// [from, from+n) go to dst[:n], and NULLs to the window's bitmap nulls —
// bit i set means row from+i is NULL (its dst entry is then 0). Every bit
// of the (n+63)/64 words is written.
func (c *Chunk) DecodeInts(dst []int64, nulls []uint64, from, n int) {
	decodeTyped(c, dst, nulls, from, n, func(v val.Value) int64 { return v.I })
}

// DecodeDoubles is DecodeInts for a Doubles chunk.
func (c *Chunk) DecodeDoubles(dst []float64, nulls []uint64, from, n int) {
	decodeTyped(c, dst, nulls, from, n, func(v val.Value) float64 { return v.F })
}

// decodeTyped is DecodeInts and DecodeDoubles; num reads the one field the
// chunk's non-NULL values carry. Only raw, run-length and bit-packed chunks
// are ever typed.
func decodeTyped[T int64 | float64](c *Chunk, dst []T, nulls []uint64, from, n int, num func(val.Value) T) {
	clear(nulls[:(n+63)/64])
	switch c.Enc {
	case EncRaw:
		for i, v := range c.Vals[from : from+n] {
			if v.Kind == val.KNull {
				dst[i] = 0
				setNull(nulls, i)
				continue
			}
			dst[i] = num(v)
		}
	case EncRLE:
		r, skip := c.runAt(from)
		for pos := 0; pos < n; r++ {
			end := pos + min(int(c.RunLens[r])-skip, n-pos)
			if v := c.RunVals[r]; v.Kind == val.KNull {
				for ; pos < end; pos++ {
					dst[pos] = 0
					setNull(nulls, pos)
				}
			} else {
				for x := num(v); pos < end; pos++ {
					dst[pos] = x
				}
			}
			skip = 0
		}
	case EncBitPack:
		mask := uint64(1)<<c.Width - 1
		bit := uint(from) * uint(c.Width)
		for i := range dst[:n] {
			word := bit >> 6
			off := bit & 63
			raw := c.Words[word] >> off
			if off+uint(c.Width) > 64 {
				raw |= c.Words[word+1] << (64 - off)
			}
			bit += uint(c.Width)
			dst[i] = T(c.Base + int64(raw&mask))
		}
		// NULLs in a pass of their own, so that a chunk without any
		// unpacks in a loop with no bitmap test.
		if c.Nulls != nil {
			for i := range n {
				if nullAt(c.Nulls, from+i) {
					dst[i] = 0
					setNull(nulls, i)
				}
			}
		}
	}
}

// runAt finds the run of an RLE chunk that row from lies in, and how many
// of that run's rows come before it.
func (c *Chunk) runAt(from int) (r, skip int) {
	for skip = from; skip > 0 && skip >= int(c.RunLens[r]); r++ {
		skip -= int(c.RunLens[r])
	}
	return r, skip
}

// valEq is run-detection equality: NULL equals NULL here (unlike SQL).
func valEq(a, b val.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case val.KNull:
		return true
	case val.KInt:
		return a.I == b.I
	case val.KDouble:
		return a.F == b.F
	case val.KStr:
		return a.S == b.S
	}
	return false
}

// encodeChunk seals one column vector, choosing the cheapest applicable
// encoding: RLE when runs dominate, bit-packing for narrow integers,
// dictionary for low-cardinality strings, raw otherwise.
func encodeChunk(kind val.Kind, vals []val.Value) Chunk {
	c := Chunk{Kind: kind, N: len(vals)}
	if len(vals) == 0 {
		c.Enc = EncRaw
		c.Vals = []val.Value{}
		c.VKind = valueKind(c.Vals)
		return c
	}

	// Zone map and value kind over non-NULL values, plus shape statistics,
	// in one pass.
	runs := 1
	nulls := 0
	intMin, intMax := int64(0), int64(0)
	allInt, allDouble := true, true
	for i, v := range vals {
		if i > 0 && !valEq(v, vals[i-1]) {
			runs++
		}
		if v.Kind == val.KNull {
			nulls++
			continue
		}
		allDouble = allDouble && v.Kind == val.KDouble
		if v.Kind == val.KInt {
			if !c.HasZone || v.I < intMin {
				intMin = v.I
			}
			if !c.HasZone || v.I > intMax {
				intMax = v.I
			}
		} else {
			allInt = false
		}
		if !c.HasZone {
			c.HasZone, c.Min, c.Max = true, v, v
		} else {
			if val.Compare(v, c.Min) < 0 {
				c.Min = v
			}
			if val.Compare(v, c.Max) > 0 {
				c.Max = v
			}
		}
	}
	c.VKind = kindOf(allInt, allDouble)

	// RLE when the average run is at least 4 rows.
	if runs*4 <= len(vals) {
		c.Enc = EncRLE
		c.RunVals = make([]val.Value, 0, runs)
		c.RunLens = make([]uint32, 0, runs)
		for i := 0; i < len(vals); {
			j := i + 1
			for j < len(vals) && valEq(vals[j], vals[i]) {
				j++
			}
			c.RunVals = append(c.RunVals, vals[i])
			c.RunLens = append(c.RunLens, uint32(j-i))
			i = j
		}
		return c
	}

	// Bit-packing for integer columns with a narrow value range.
	if allInt && c.HasZone {
		span := uint64(intMax - intMin)
		width := 1
		for span>>uint(width) != 0 {
			width++
		}
		if width <= bitPackMaxWidth {
			c.Enc = EncBitPack
			c.Base = intMin
			c.Width = uint8(width)
			c.Words = make([]uint64, (len(vals)*width+63)/64)
			if nulls > 0 {
				c.Nulls = make([]uint64, (len(vals)+63)/64)
			}
			bit := uint(0)
			for i, v := range vals {
				var raw uint64
				if v.Kind == val.KNull {
					setNull(c.Nulls, i)
				} else {
					raw = uint64(v.I - intMin)
				}
				word := bit >> 6
				off := bit & 63
				c.Words[word] |= raw << off
				if off+uint(width) > 64 {
					c.Words[word+1] |= raw >> (64 - off)
				}
				bit += uint(width)
			}
			return c
		}
	}

	// Dictionary for low-cardinality string columns.
	if kind == val.KStr && c.HasZone {
		dict := map[string]int{}
		ok := true
		for _, v := range vals {
			if v.Kind == val.KNull {
				continue
			}
			if v.Kind != val.KStr {
				ok = false
				break
			}
			if _, seen := dict[v.S]; !seen {
				if len(dict) >= dictMaxCard {
					ok = false
					break
				}
				dict[v.S] = len(dict)
			}
		}
		if ok {
			c.Enc = EncDict
			c.Dict = make([]string, len(dict))
			for s, code := range dict {
				c.Dict[code] = s
			}
			c.Codes = make([]byte, len(vals))
			if nulls > 0 {
				c.Nulls = make([]uint64, (len(vals)+63)/64)
			}
			for i, v := range vals {
				if v.Kind == val.KNull {
					setNull(c.Nulls, i)
					continue
				}
				c.Codes[i] = byte(dict[v.S])
			}
			return c
		}
	}

	c.Enc = EncRaw
	c.Vals = append([]val.Value(nil), vals...)
	return c
}

// Builder accumulates rows column-major and seals them into segments.
type Builder struct {
	kinds   []val.Kind
	segRows int
	cols    [][]val.Value
	segs    []*Segment
}

// NewBuilder creates a builder for a row shape. segRows ≤ 0 selects
// DefaultSegmentRows.
func NewBuilder(kinds []val.Kind, segRows int) *Builder {
	if segRows <= 0 {
		segRows = DefaultSegmentRows
	}
	b := &Builder{kinds: kinds, segRows: segRows, cols: make([][]val.Value, len(kinds))}
	for i := range b.cols {
		b.cols[i] = make([]val.Value, 0, segRows)
	}
	return b
}

// Add appends one row; the values are copied.
func (b *Builder) Add(row []val.Value) {
	if len(b.cols) == 0 {
		return
	}
	for i := range b.cols {
		b.cols[i] = append(b.cols[i], row[i])
	}
	if len(b.cols[0]) >= b.segRows {
		b.seal()
	}
}

func (b *Builder) seal() {
	n := len(b.cols[0])
	if n == 0 {
		return
	}
	seg := &Segment{NumRows: n, Cols: make([]Chunk, len(b.cols))}
	for i, vals := range b.cols {
		seg.Cols[i] = encodeChunk(b.kinds[i], vals)
		b.cols[i] = b.cols[i][:0]
	}
	b.segs = append(b.segs, seg)
}

// Finish seals any partial segment and returns the segment list. The
// builder must not be reused afterwards.
func (b *Builder) Finish() []*Segment {
	if len(b.cols) > 0 {
		b.seal()
	}
	return b.segs
}
