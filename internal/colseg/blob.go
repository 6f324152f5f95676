package colseg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"anywheredb/internal/val"
)

// Segment blobs are the persisted form of a table's segment list: a single
// byte string (stored by the table layer in a chain of colseg pages) with a
// trailing CRC. Loading is strictly validating — any mismatch, truncation,
// or unknown tag makes the caller fall back to the row heap, which is
// always authoritative. A torn write can therefore cost the columnar
// acceleration but never correctness.

// blobMagic versions the format.
var blobMagic = [4]byte{'C', 'S', 'G', '1'}

// ErrBadBlob reports a corrupt or truncated segment blob.
var ErrBadBlob = errors.New("colseg: corrupt segment blob")

const (
	flagHasZone  = 1 << 0
	flagHasNulls = 1 << 1
)

func putU32(b []byte, v uint32) []byte {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	return append(b, t[:]...)
}

func putU64(b []byte, v uint64) []byte {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	return append(b, t[:]...)
}

func putBytes(b, p []byte) []byte {
	b = putU32(b, uint32(len(p)))
	return append(b, p...)
}

func putVals(b []byte, vs []val.Value) []byte {
	return putBytes(b, val.EncodeRow(vs))
}

// EncodeSegments serializes a segment list.
func EncodeSegments(segs []*Segment) []byte {
	b := append([]byte(nil), blobMagic[:]...)
	b = putU32(b, uint32(len(segs)))
	for _, s := range segs {
		b = putU32(b, uint32(s.NumRows))
		b = putU32(b, uint32(len(s.Cols)))
		for i := range s.Cols {
			c := &s.Cols[i]
			var flags byte
			if c.HasZone {
				flags |= flagHasZone
			}
			if c.Nulls != nil {
				flags |= flagHasNulls
			}
			b = append(b, byte(c.Kind), byte(c.Enc), flags)
			b = putU32(b, uint32(c.N))
			if c.HasZone {
				b = putVals(b, []val.Value{c.Min, c.Max})
			}
			if c.Nulls != nil {
				b = putU32(b, uint32(len(c.Nulls)))
				for _, w := range c.Nulls {
					b = putU64(b, w)
				}
			}
			switch c.Enc {
			case EncRaw:
				b = putVals(b, c.Vals)
			case EncDict:
				b = putU32(b, uint32(len(c.Dict)))
				for _, s := range c.Dict {
					b = putBytes(b, []byte(s))
				}
				b = putBytes(b, c.Codes)
			case EncRLE:
				b = putU32(b, uint32(len(c.RunVals)))
				b = putVals(b, c.RunVals)
				for _, n := range c.RunLens {
					b = putU32(b, n)
				}
			case EncBitPack:
				b = putU64(b, uint64(c.Base))
				b = append(b, c.Width)
				b = putU32(b, uint32(len(c.Words)))
				for _, w := range c.Words {
					b = putU64(b, w)
				}
			}
		}
	}
	return putU32(b, crc32.ChecksumIEEE(b))
}

// reader is a bounds-checked cursor over a blob.
type reader struct {
	b   []byte
	pos int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrBadBlob
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil || n < 0 || r.pos+n > len(r.b) {
		r.fail()
		return nil
	}
	p := r.b[r.pos : r.pos+n]
	r.pos += n
	return p
}

func (r *reader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *reader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *reader) byte() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	return r.take(n)
}

func (r *reader) vals() []val.Value {
	p := r.bytes()
	if r.err != nil {
		return nil
	}
	vs, err := val.DecodeRow(p)
	if err != nil {
		r.fail()
		return nil
	}
	return vs
}

// DecodeSegments parses a blob produced by EncodeSegments, verifying the
// trailing CRC first.
func DecodeSegments(b []byte) ([]*Segment, error) {
	if len(b) < len(blobMagic)+8 {
		return nil, ErrBadBlob
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadBlob)
	}
	r := &reader{b: body}
	if string(r.take(4)) != string(blobMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadBlob)
	}
	nseg := int(r.u32())
	if r.err != nil || nseg < 0 || nseg > len(b) {
		return nil, ErrBadBlob
	}
	segs := make([]*Segment, 0, nseg)
	for si := 0; si < nseg; si++ {
		s := &Segment{NumRows: int(r.u32())}
		ncols := int(r.u32())
		if r.err != nil || ncols < 0 || ncols > len(b) {
			return nil, ErrBadBlob
		}
		s.Cols = make([]Chunk, ncols)
		for ci := 0; ci < ncols; ci++ {
			c := &s.Cols[ci]
			c.Kind = val.Kind(r.byte())
			c.Enc = Encoding(r.byte())
			flags := r.byte()
			c.N = int(r.u32())
			if c.N != s.NumRows {
				r.fail()
			}
			if flags&flagHasZone != 0 {
				mm := r.vals()
				if len(mm) != 2 {
					r.fail()
				} else {
					c.HasZone, c.Min, c.Max = true, mm[0], mm[1]
				}
			}
			if flags&flagHasNulls != 0 {
				nw := int(r.u32())
				if r.err != nil || nw != (c.N+63)/64 {
					return nil, ErrBadBlob
				}
				c.Nulls = make([]uint64, nw)
				for i := range c.Nulls {
					c.Nulls[i] = r.u64()
				}
			}
			switch c.Enc {
			case EncRaw:
				c.Vals = r.vals()
				if r.err == nil && len(c.Vals) != c.N {
					r.fail()
				}
				c.VKind = valueKind(c.Vals)
			case EncDict:
				nd := int(r.u32())
				if r.err != nil || nd < 0 || nd > dictMaxCard {
					return nil, ErrBadBlob
				}
				c.Dict = make([]string, nd)
				for i := range c.Dict {
					c.Dict[i] = string(r.bytes())
				}
				c.Codes = append([]byte(nil), r.bytes()...)
				if r.err == nil && len(c.Codes) != c.N {
					r.fail()
				}
				for _, code := range c.Codes {
					if int(code) >= nd && !nullCodeOK(c, nd) {
						r.fail()
						break
					}
				}
			case EncRLE:
				nr := int(r.u32())
				c.RunVals = r.vals()
				if r.err == nil && len(c.RunVals) != nr {
					r.fail()
				}
				if r.err != nil {
					return nil, ErrBadBlob
				}
				c.RunLens = make([]uint32, nr)
				total := 0
				for i := range c.RunLens {
					c.RunLens[i] = r.u32()
					total += int(c.RunLens[i])
				}
				if r.err == nil && total != c.N {
					r.fail()
				}
				c.VKind = valueKind(c.RunVals)
			case EncBitPack:
				c.Base = int64(r.u64())
				c.Width = r.byte()
				nw := int(r.u32())
				if r.err != nil || c.Width == 0 || c.Width > bitPackMaxWidth ||
					nw != (c.N*int(c.Width)+63)/64 {
					return nil, ErrBadBlob
				}
				c.Words = make([]uint64, nw)
				for i := range c.Words {
					c.Words[i] = r.u64()
				}
				c.VKind = Ints
			default:
				return nil, fmt.Errorf("%w: unknown encoding %d", ErrBadBlob, c.Enc)
			}
			if r.err != nil {
				return nil, r.err
			}
		}
		segs = append(segs, s)
	}
	if r.pos != len(r.b) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadBlob)
	}
	return segs, nil
}

// nullCodeOK allows the placeholder code 0 at NULL positions of an all-NULL
// chunk whose dictionary is empty.
func nullCodeOK(c *Chunk, dictLen int) bool {
	return dictLen == 0 && c.Nulls != nil
}
