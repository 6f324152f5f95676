package colseg

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"anywheredb/internal/val"
)

// decode materializes a single-column chunk back into values.
func decodeChunk(c *Chunk) []val.Value {
	out := make([]val.Value, c.N)
	c.DecodeRange(out, 0, c.N)
	return out
}

// canon maps a value to its observable form: decoding never distinguishes
// NULLs of different origin.
func canon(v val.Value) val.Value {
	if v.Kind == val.KNull {
		return val.Value{}
	}
	return v
}

func checkRoundTrip(t *testing.T, kind val.Kind, vals []val.Value) {
	t.Helper()
	c := encodeChunk(kind, vals)
	got := decodeChunk(&c)
	if len(got) != len(vals) {
		t.Fatalf("enc=%v: %d rows in, %d out", c.Enc, len(vals), len(got))
	}
	for i := range vals {
		if !valEq(canon(vals[i]), canon(got[i])) {
			t.Fatalf("enc=%v row %d: want %v, got %v", c.Enc, i, vals[i], got[i])
		}
	}
	// The blob round trip must preserve the decoded values too.
	seg := &Segment{NumRows: len(vals), Cols: []Chunk{c}}
	segs, err := DecodeSegments(EncodeSegments([]*Segment{seg}))
	if err != nil {
		t.Fatalf("enc=%v: blob round trip: %v", c.Enc, err)
	}
	if len(segs) != 1 || segs[0].NumRows != len(vals) {
		t.Fatalf("enc=%v: blob shape wrong", c.Enc)
	}
	got2 := decodeChunk(&segs[0].Cols[0])
	for i := range vals {
		if !valEq(canon(vals[i]), canon(got2[i])) {
			t.Fatalf("enc=%v row %d after blob: want %v, got %v", c.Enc, i, vals[i], got2[i])
		}
	}
	// Zone-map soundness: a skipped segment must contain no matching row.
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for _, k := range append([]val.Value{{Kind: val.KInt, I: 0}, {Kind: val.KStr, S: "m"}, {}}, vals...) {
			if seg.MayMatch(0, op, k) {
				continue
			}
			for i, v := range vals {
				if v.Kind == val.KNull || k.Kind == val.KNull {
					continue
				}
				n := val.Compare(v, k)
				var match bool
				switch op {
				case "=":
					match = n == 0
				case "<>":
					match = n != 0
				case "<":
					match = n < 0
				case "<=":
					match = n <= 0
				case ">":
					match = n > 0
				case ">=":
					match = n >= 0
				}
				if match {
					t.Fatalf("enc=%v: zone map skipped segment but row %d (%v) matches %s %v", c.Enc, i, v, op, k)
				}
			}
		}
	}
}

// genInts drives the int codecs through their selection logic: runs force
// RLE, narrow ranges force bit-packing, wide ranges force raw.
func genInts(r *rand.Rand, n int) []val.Value {
	out := make([]val.Value, 0, n)
	style := r.Intn(4)
	for len(out) < n {
		var v val.Value
		switch style {
		case 0: // narrow domain → bitpack
			v = val.Value{Kind: val.KInt, I: int64(r.Intn(50))}
		case 1: // wide domain → raw
			v = val.Value{Kind: val.KInt, I: r.Int63() - r.Int63()}
		case 2: // runs → RLE
			v = val.Value{Kind: val.KInt, I: int64(r.Intn(3))}
			run := 1 + r.Intn(16)
			for j := 0; j < run && len(out) < n; j++ {
				out = append(out, v)
			}
			continue
		default: // sprinkle NULLs
			if r.Intn(3) == 0 {
				v = val.Value{}
			} else {
				v = val.Value{Kind: val.KInt, I: int64(r.Intn(1000) - 500)}
			}
		}
		out = append(out, v)
	}
	return out
}

func genStrs(r *rand.Rand, n int) []val.Value {
	out := make([]val.Value, 0, n)
	style := r.Intn(3)
	for len(out) < n {
		switch style {
		case 0: // low cardinality → dict
			out = append(out, val.Value{Kind: val.KStr, S: []string{"red", "green", "blue", "cyan"}[r.Intn(4)]})
		case 1: // high cardinality → raw
			out = append(out, val.Value{Kind: val.KStr, S: strings.Repeat("x", r.Intn(5)) + string(rune('a'+r.Intn(26))) + string(rune('0'+r.Intn(10)))})
		default:
			if r.Intn(4) == 0 {
				out = append(out, val.Value{})
			} else {
				out = append(out, val.Value{Kind: val.KStr, S: string(rune('a' + r.Intn(26)))})
			}
		}
	}
	return out
}

func TestCodecRoundTripQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(func(seed int64, ln uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(ln % 600)
		checkRoundTrip(t, val.KInt, genInts(r, n))
		checkRoundTrip(t, val.KStr, genStrs(r, n))
		fl := make([]val.Value, n)
		for i := range fl {
			if r.Intn(5) == 0 {
				fl[i] = val.Value{}
			} else {
				fl[i] = val.Value{Kind: val.KDouble, F: r.NormFloat64()}
			}
		}
		checkRoundTrip(t, val.KDouble, fl)
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCodecEdgeCases(t *testing.T) {
	// Empty input.
	checkRoundTrip(t, val.KInt, nil)
	// Single value.
	checkRoundTrip(t, val.KInt, []val.Value{{Kind: val.KInt, I: -7}})
	checkRoundTrip(t, val.KStr, []val.Value{{Kind: val.KStr, S: ""}})
	// All NULL (RLE null run).
	all := make([]val.Value, 300)
	checkRoundTrip(t, val.KStr, all)
	checkRoundTrip(t, val.KInt, all)
	// Max dictionary cardinality: exactly 256 distinct strings dict-encodes,
	// 257 falls back to raw.
	card := func(n int) []val.Value {
		vs := make([]val.Value, 2*n)
		for i := range vs {
			vs[i] = val.Value{Kind: val.KStr, S: "k" + string(rune(i%n))}
		}
		return vs
	}
	c := encodeChunk(val.KStr, card(dictMaxCard))
	if c.Enc != EncDict {
		t.Fatalf("256-cardinality column should dict-encode, got %v", c.Enc)
	}
	checkRoundTrip(t, val.KStr, card(dictMaxCard))
	c = encodeChunk(val.KStr, card(dictMaxCard+1))
	if c.Enc == EncDict {
		t.Fatal("257-cardinality column must not dict-encode")
	}
	checkRoundTrip(t, val.KStr, card(dictMaxCard+1))
	// Extreme int range must survive (raw fallback, no packing overflow).
	checkRoundTrip(t, val.KInt, []val.Value{
		{Kind: val.KInt, I: -1 << 62}, {Kind: val.KInt, I: 1<<62 - 1}, {},
	})
	// Bit-pack boundary straddling words: width that does not divide 64.
	vs := make([]val.Value, 500)
	for i := range vs {
		vs[i] = val.Value{Kind: val.KInt, I: int64(1000 + (i*7919)%5000)}
	}
	c = encodeChunk(val.KInt, vs)
	if c.Enc != EncBitPack {
		t.Fatalf("narrow ints should bit-pack, got %v", c.Enc)
	}
	checkRoundTrip(t, val.KInt, vs)
}

func TestBuilderSegmentation(t *testing.T) {
	b := NewBuilder([]val.Kind{val.KInt, val.KStr}, 100)
	for i := 0; i < 250; i++ {
		b.Add([]val.Value{{Kind: val.KInt, I: int64(i)}, {Kind: val.KStr, S: "v"}})
	}
	segs := b.Finish()
	if len(segs) != 3 || segs[0].NumRows != 100 || segs[2].NumRows != 50 {
		t.Fatalf("unexpected segmentation: %d segs", len(segs))
	}
	// Zone maps must be tight per segment: segment 1 covers [100,199].
	s := segs[1]
	if !s.Cols[0].HasZone || s.Cols[0].Min.I != 100 || s.Cols[0].Max.I != 199 {
		t.Fatalf("zone map wrong: %+v", s.Cols[0])
	}
	if s.MayMatch(0, "=", val.Value{Kind: val.KInt, I: 42}) {
		t.Fatal("segment 1 should be skippable for =42")
	}
	if !s.MayMatch(0, "=", val.Value{Kind: val.KInt, I: 150}) {
		t.Fatal("segment 1 must not be skipped for =150")
	}
	// A window decodes the rows it names, column by column.
	ids, strs := make([]val.Value, 2), make([]val.Value, 2)
	s.Cols[0].DecodeRange(ids, 0, 2)
	s.Cols[1].DecodeRange(strs, 0, 2)
	if ids[0].I != 100 || ids[1].I != 101 || strs[0].S != "v" {
		t.Fatalf("window decode wrong: %v %v", ids, strs)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	b := NewBuilder([]val.Kind{val.KInt}, 0)
	for i := 0; i < 1000; i++ {
		b.Add([]val.Value{{Kind: val.KInt, I: int64(i % 97)}})
	}
	blob := EncodeSegments(b.Finish())
	if _, err := DecodeSegments(blob); err != nil {
		t.Fatalf("clean blob rejected: %v", err)
	}
	for _, cut := range []int{1, len(blob) / 2, len(blob) - 1} {
		if _, err := DecodeSegments(blob[:cut]); err == nil {
			t.Fatalf("truncated blob (at %d) accepted", cut)
		}
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/3] ^= 0x40
	if _, err := DecodeSegments(flipped); err == nil {
		t.Fatal("bit-flipped blob accepted")
	}
	if _, err := DecodeSegments(nil); err == nil {
		t.Fatal("empty blob accepted")
	}
}

func TestEncodingSelection(t *testing.T) {
	runs := make([]val.Value, 400)
	for i := range runs {
		runs[i] = val.Value{Kind: val.KStr, S: []string{"a", "b"}[i/200]}
	}
	if c := encodeChunk(val.KStr, runs); c.Enc != EncRLE {
		t.Fatalf("long runs should RLE, got %v", c.Enc)
	}
	wide := make([]val.Value, 400)
	for i := range wide {
		wide[i] = val.Value{Kind: val.KInt, I: int64(i) * (1 << 41)}
	}
	if c := encodeChunk(val.KInt, wide); c.Enc != EncRaw {
		t.Fatalf("wide ints should stay raw, got %v", c.Enc)
	}
	if !reflect.DeepEqual(decodeChunk(&Chunk{Kind: val.KInt, Enc: EncRaw, Vals: []val.Value{}}), []val.Value{}) {
		t.Fatal("empty raw chunk decode")
	}
}

// TestDecodeRangeQuick: a windowed decode of [from, from+n) is the same
// slice of the full decode — for every encoding, with and without NULLs,
// for windows that start inside an RLE run and windows that end at the
// segment end.
func TestDecodeRangeQuick(t *testing.T) {
	type shape struct {
		enc   Encoding
		nulls bool
	}
	seen := map[shape]bool{}
	midRun, atEnd := false, false
	check := func(r *rand.Rand, kind val.Kind, vals []val.Value) bool {
		c := encodeChunk(kind, vals)
		full := decodeChunk(&c)
		nulls := false
		for _, v := range vals {
			nulls = nulls || v.Kind == val.KNull
		}
		seen[shape{c.Enc, nulls}] = true
		for w := 0; w < 8; w++ {
			from := r.Intn(len(vals) + 1)
			n := r.Intn(len(vals) - from + 1)
			if w == 0 {
				n = len(vals) - from // ends at the segment end
			}
			atEnd = atEnd || (n > 0 && from+n == len(vals))
			if c.Enc == EncRLE && from > 0 && from < len(vals) && valEq(vals[from-1], vals[from]) {
				midRun = true
			}
			// Poisoned, and one longer than the window: a decode may write
			// dst[:n] and nothing else.
			got := make([]val.Value, n+1)
			for i := range got {
				got[i] = val.Value{Kind: val.KStr, S: "poison"}
			}
			c.DecodeRange(got, from, n)
			if got[n].S != "poison" {
				t.Errorf("enc=%v window [%d,+%d): wrote past the window", c.Enc, from, n)
				return false
			}
			for i := 0; i < n; i++ {
				if !valEq(got[i], full[from+i]) {
					t.Errorf("enc=%v window [%d,+%d) row %d: got %v, full decode has %v", c.Enc, from, n, i, got[i], full[from+i])
					return false
				}
			}
		}
		return true
	}
	withNulls := func(r *rand.Rand, vals []val.Value, runs bool) []val.Value {
		for i := 0; i < len(vals); i++ {
			if r.Intn(6) == 0 {
				vals[i] = val.Value{}
				for ; runs && i+1 < len(vals) && r.Intn(4) != 0; i++ {
					vals[i+1] = val.Value{}
				}
			}
		}
		return vals
	}
	if err := quick.Check(func(seed int64, ln uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(ln%600)
		ok := check(r, val.KInt, genInts(r, n)) && check(r, val.KStr, genStrs(r, n))
		// The generators pick their style at random; these pin each encoding
		// with NULLs in it: bit-packed, run-length, dictionary, raw.
		narrow, runs, wide := make([]val.Value, n), make([]val.Value, 0, n), make([]val.Value, n)
		for i := range narrow {
			narrow[i] = val.Value{Kind: val.KInt, I: int64(r.Intn(50))}
			wide[i] = val.Value{Kind: val.KDouble, F: r.NormFloat64()}
		}
		for len(runs) < n {
			v := val.Value{Kind: val.KInt, I: int64(r.Intn(3))}
			for j := 4 + r.Intn(16); j > 0 && len(runs) < n; j-- {
				runs = append(runs, v)
			}
		}
		dict := genStrs(rand.New(rand.NewSource(seed*3)), n) // style 0 for a third of the seeds
		return ok && check(r, val.KInt, withNulls(r, narrow, false)) &&
			check(r, val.KInt, withNulls(r, runs, true)) &&
			check(r, val.KStr, withNulls(r, dict, false)) &&
			check(r, val.KDouble, wide) && check(r, val.KDouble, withNulls(r, wide, false))
	}, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
	for _, enc := range []Encoding{EncRaw, EncDict, EncRLE, EncBitPack} {
		for _, nulls := range []bool{false, true} {
			if !seen[shape{enc, nulls}] {
				t.Errorf("no %v chunk with nulls=%v was generated", enc, nulls)
			}
		}
	}
	if !midRun || !atEnd {
		t.Errorf("windows starting inside an RLE run: %v, ending at the segment end: %v; want both", midRun, atEnd)
	}
}

// wantKind is the value kind a chunk of vals must report, worked out
// independently of the codec: Ints unless a non-NULL value is not an INT,
// Doubles unless one is not a DOUBLE, Mixed otherwise.
func wantKind(vals []val.Value) ValueKind {
	ints, doubles := 0, 0
	for _, v := range vals {
		switch v.Kind {
		case val.KNull:
		case val.KInt:
			ints++
		case val.KDouble:
			doubles++
		default:
			return Mixed
		}
	}
	switch {
	case doubles == 0:
		return Ints
	case ints == 0:
		return Doubles
	}
	return Mixed
}

// sameValue is identity of decoded values: the kind and its payload, a
// double by its bits.
func sameValue(a, b val.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case val.KInt:
		return a.I == b.I
	case val.KDouble:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case val.KStr:
		return a.S == b.S
	}
	return true
}

// typedWindow decodes rows [from, from+n) of c the way a typed reader does —
// DecodeInts or DecodeDoubles as its value kind says, DecodeRange for a
// Mixed chunk — and boxes the result back into values. The bitmap starts
// poisoned, so a word the decode failed to write shows as NULLs.
func typedWindow(c *Chunk, from, n int) []val.Value {
	out := make([]val.Value, n)
	nulls := make([]uint64, (n+63)/64)
	for i := range nulls {
		nulls[i] = ^uint64(0)
	}
	switch c.VKind {
	case Ints:
		xs := make([]int64, n)
		c.DecodeInts(xs, nulls, from, n)
		for i, x := range xs {
			if !nullAt(nulls, i) {
				out[i] = val.NewInt(x)
			}
		}
	case Doubles:
		xs := make([]float64, n)
		c.DecodeDoubles(xs, nulls, from, n)
		for i, x := range xs {
			if !nullAt(nulls, i) {
				out[i] = val.NewDouble(x)
			}
		}
	default:
		c.DecodeRange(out, from, n)
	}
	return out
}

// checkTyped seals vals into a chunk and checks its value kind, at seal and
// after a blob round trip, and that the typed decode of each window —
// whole, and the windows picks — boxed back is DecodeRange's decode of it.
// It returns the sealed chunk.
func checkTyped(t testing.TB, kind val.Kind, vals []val.Value, picks [][2]int) Chunk {
	t.Helper()
	c := encodeChunk(kind, vals)
	if want := wantKind(vals); c.VKind != want {
		t.Fatalf("enc=%v: value kind %d at seal, want %d", c.Enc, c.VKind, want)
	}
	segs, err := DecodeSegments(EncodeSegments([]*Segment{{NumRows: len(vals), Cols: []Chunk{c}}}))
	if err != nil {
		t.Fatalf("enc=%v: blob round trip: %v", c.Enc, err)
	}
	loaded := &segs[0].Cols[0]
	if loaded.VKind != c.VKind {
		t.Fatalf("enc=%v: value kind %d after load, %d at seal", c.Enc, loaded.VKind, c.VKind)
	}
	for _, ch := range []*Chunk{&c, loaded} {
		for _, w := range append([][2]int{{0, len(vals)}}, picks...) {
			from, n := w[0], w[1]
			want := make([]val.Value, n)
			ch.DecodeRange(want, from, n)
			for i, got := range typedWindow(ch, from, n) {
				if !sameValue(got, want[i]) {
					t.Fatalf("enc=%v kind=%d window [%d,+%d) row %d: typed %v, DecodeRange %v",
						ch.Enc, ch.VKind, from, n, i, got, want[i])
				}
			}
		}
	}
	return c
}

// TestTypedDecodeQuick: for random windows over every encoding, the typed
// decode boxed back is the boxed decode, and a chunk's value kind survives
// a save and load.
func TestTypedDecodeQuick(t *testing.T) {
	type shape struct {
		enc   Encoding
		kind  ValueKind
		nulls bool
	}
	seen := map[shape]bool{}
	if err := quick.Check(func(seed int64, ln uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(ln%600)
		picks := make([][2]int, 8)
		for i := range picks {
			from := r.Intn(n + 1)
			picks[i] = [2]int{from, r.Intn(n - from + 1)}
		}
		nullEvery := func(vals []val.Value, k int) []val.Value {
			for i := range vals {
				if r.Intn(k) == 0 {
					vals[i] = val.Value{}
				}
			}
			return vals
		}
		gen := func(f func(i int) val.Value) []val.Value {
			vals := make([]val.Value, n)
			for i := range vals {
				vals[i] = f(i)
			}
			return vals
		}
		wideInt := func(int) val.Value { return val.NewInt(r.Int63() - r.Int63()) }
		narrowInt := func(int) val.Value { return val.NewInt(int64(r.Intn(50) - 10)) }
		double := func(int) val.Value { return val.NewDouble(r.NormFloat64()) }
		mixed := func(i int) val.Value {
			if i%7 == 3 {
				return double(i)
			}
			return wideInt(i)
		}
		// Runs of 4–19 rows of one value, a third of them NULL runs.
		runs := func(v func(int) val.Value) []val.Value {
			vals := make([]val.Value, 0, n)
			for len(vals) < n {
				x := v(0)
				if r.Intn(3) == 0 {
					x = val.Value{}
				}
				for j := 4 + r.Intn(16); j > 0 && len(vals) < n; j-- {
					vals = append(vals, x)
				}
			}
			return vals
		}
		cases := []struct {
			kind val.Kind
			vals []val.Value
		}{
			{val.KInt, gen(wideInt)},
			{val.KInt, nullEvery(gen(wideInt), 5)},
			{val.KDouble, gen(double)},
			{val.KDouble, nullEvery(gen(double), 5)},
			{val.KInt, gen(mixed)},
			{val.KInt, nullEvery(gen(mixed), 5)},
			{val.KInt, gen(narrowInt)},
			{val.KInt, nullEvery(gen(narrowInt), 4)},
			{val.KInt, runs(narrowInt)},
			{val.KDouble, runs(func(int) val.Value { return val.NewDouble(float64(r.Intn(3)) / 4) })},
			{val.KStr, genStrs(rand.New(rand.NewSource(seed*3)), n)}, // dictionary for a third of the seeds
		}
		for _, tc := range cases {
			c := checkTyped(t, tc.kind, tc.vals, picks)
			nulls := false
			for _, v := range tc.vals {
				nulls = nulls || v.Kind == val.KNull
			}
			seen[shape{c.Enc, c.VKind, nulls}] = true
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []shape{
		{EncRaw, Ints, false}, {EncRaw, Ints, true},
		{EncRaw, Doubles, false}, {EncRaw, Doubles, true},
		{EncRaw, Mixed, false}, {EncRaw, Mixed, true},
		{EncBitPack, Ints, false}, {EncBitPack, Ints, true},
		{EncRLE, Ints, true}, {EncRLE, Doubles, true},
		{EncDict, Mixed, false},
	} {
		if !seen[s] {
			t.Errorf("no %v chunk of value kind %d with nulls=%v was generated", s.enc, s.kind, s.nulls)
		}
	}
}

// FuzzChunkDecode: TestTypedDecodeQuick's property over values the fuzzer
// spells. Each input byte b starts one step: b%5 is 0 for a NULL, 1 for a
// narrow INT, 2 for an INT from the next 8 bytes, 3 for a DOUBLE from the
// next 8 bytes (any bits: NaNs, infinities, -0), 4 for a run of b/5 more
// copies of the last value. The window is read from the first two bytes.
func FuzzChunkDecode(f *testing.F) {
	f.Add([]byte{1, 6, 11, 16, 0, 1, 44, 0, 0})
	f.Add([]byte{2, 1, 2, 3, 4, 5, 6, 7, 8, 3, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 2, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 54, 0, 99, 1, 49})
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []val.Value
		for i := 0; i < len(data) && len(vals) < 4096; {
			b := data[i]
			i++
			switch b % 5 {
			case 0:
				vals = append(vals, val.Value{})
			case 1:
				vals = append(vals, val.NewInt(int64(b/5)))
			case 2, 3:
				var w [8]byte
				i += copy(w[:], data[i:])
				x := binary.LittleEndian.Uint64(w[:])
				if b%5 == 2 {
					vals = append(vals, val.NewInt(int64(x)))
				} else {
					vals = append(vals, val.NewDouble(math.Float64frombits(x)))
				}
			case 4:
				if len(vals) > 0 {
					for j := int(b / 5); j > 0; j-- {
						vals = append(vals, vals[len(vals)-1])
					}
				}
			}
		}
		var pick [2]int
		if len(data) >= 2 && len(vals) > 0 {
			pick[0] = int(data[0]) % (len(vals) + 1)
			pick[1] = int(data[1]) % (len(vals) - pick[0] + 1)
		}
		checkTyped(t, val.KInt, vals, [][2]int{pick})
	})
}
