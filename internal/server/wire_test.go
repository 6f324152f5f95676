package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"anywheredb/internal/val"
)

// Shorthands for encoding a payload on its own.
func (m helloMsg) encode() []byte              { return m.append(nil) }
func (m execMsg) encode() []byte               { return m.append(nil) }
func (m errMsg) encode() []byte                { return m.append(nil) }
func encodeRowHeader(cols []string) []byte     { return appendRowHeader(nil, cols) }
func encodeRowBatch(rows [][]val.Value) []byte { return appendRowBatch(nil, rows) }

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {0x00}, bytes.Repeat([]byte{0xab}, 100_000)}
	for _, p := range payloads {
		buf.Reset()
		if err := WriteFrame(&buf, MsgExec, p); err != nil {
			t.Fatal(err)
		}
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != MsgExec || !bytes.Equal(got, p) {
			t.Fatalf("round trip mismatch: typ=%#x len=%d want %d", typ, len(got), len(p))
		}
	}
}

// TestBufferedFrameIOAllocatesOnlyThePayload: through a bufio pair, as the
// replication stream uses them, a frame's header is written and read in
// the buffers themselves.
func TestBufferedFrameIOAllocatesOnlyThePayload(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 100)
	bw := bufio.NewWriter(io.Discard)
	if n := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(bw, MsgExec, payload); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
	}); n != 0 {
		t.Errorf("writing a frame allocates %.1f objects, want 0", n)
	}
	var frame bytes.Buffer
	WriteFrame(&frame, MsgExec, payload)
	r := bytes.NewReader(frame.Bytes())
	br := bufio.NewReader(r)
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(frame.Bytes())
		br.Reset(r)
		if _, got, err := ReadFrame(br); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read %x, %v", got, err)
		}
	}); n != 1 {
		t.Errorf("reading a frame allocates %.1f objects, want 1 (the payload)", n)
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	// A hostile length prefix beyond MaxFrame must fail without allocating.
	hdr := []byte{0xff, 0xff, 0xff, 0xff, byte(MsgExec)}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	vals := []val.Value{
		val.Null,
		val.NewInt(0), val.NewInt(-1), val.NewInt(math.MaxInt64), val.NewInt(math.MinInt64),
		val.NewDouble(0), val.NewDouble(-2.5), val.NewDouble(math.Inf(1)),
		val.NewStr(""), val.NewStr("héllo wörld"), val.NewStr(string([]byte{0, 1, 2, 255})),
	}
	b := appendValues(nil, vals)
	got, rest, err := readValues(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if !reflect.DeepEqual(got, vals) {
		t.Fatalf("got %v want %v", got, vals)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	in := helloMsg{Version: ProtoVersion, Token: "tok", ClientName: "c1", DeadlineUS: 12345}
	out, err := decodeHello(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v want %+v", out, in)
	}
}

func TestExecRoundTrip(t *testing.T) {
	in := execMsg{
		StmtID:     7,
		SQL:        "select * from t where a = ?",
		DeadlineUS: 500_000,
		Params:     []val.Value{val.NewInt(42), val.NewStr("x"), val.Null},
	}
	out, err := decodeExec(in.encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v want %+v", out, in)
	}
}

func TestRowBatchRoundTrip(t *testing.T) {
	rows := [][]val.Value{
		{val.NewInt(1), val.NewStr("a")},
		{val.Null, val.NewDouble(3.5)},
		{},
	}
	got, err := DecodeRowBatch(encodeRowBatch(rows))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("got %v want %v", got, rows)
	}
	cols := []string{"a", "b", ""}
	gotCols, err := DecodeRowHeader(encodeRowHeader(cols))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCols, cols) {
		t.Fatalf("got %v want %v", gotCols, cols)
	}
}

// TestRowBatchRowsDoNotAlias: a decoded batch's rows share one slab, yet
// appending to row 0 leaves row 1 intact — also when a row wider than the
// first made the slab move while it was decoded.
func TestRowBatchRowsDoNotAlias(t *testing.T) {
	for _, rows := range [][][]val.Value{
		{{val.NewInt(1), val.NewStr("a")}, {val.NewInt(2), val.NewStr("b")}, {val.NewInt(3), val.NewStr("c")}},
		{{val.NewInt(1)}, {val.NewInt(2), val.NewInt(3), val.NewInt(4), val.NewInt(5)}, {}, {val.Null}},
	} {
		got, err := DecodeRowBatch(encodeRowBatch(rows))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rows) {
			t.Fatalf("got %v want %v", got, rows)
		}
		_ = append(got[0], val.NewStr("clobber"), val.NewStr("clobber"))
		if !reflect.DeepEqual(got[1], rows[1]) {
			t.Fatalf("appending to row 0 changed row 1 to %v", got[1])
		}
	}
}

func TestErrMsgRoundTrip(t *testing.T) {
	in := errMsg{Code: CodeRetry, Message: "try again"}
	code, msg, err := DecodeError(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if out := (errMsg{Code: code, Message: msg}); out != in {
		t.Fatalf("got %+v want %+v", out, in)
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	full := execMsg{SQL: "select 1", Params: []val.Value{val.NewStr("abc")}}.encode()
	for i := 0; i < len(full); i++ {
		if _, err := decodeExec(full[:i], nil); err == nil {
			t.Fatalf("truncated exec at %d accepted", i)
		}
	}
	hdr := encodeRowHeader([]string{"a", "b"})
	for i := 0; i < len(hdr); i++ {
		if _, err := DecodeRowHeader(hdr[:i]); err == nil {
			t.Fatalf("truncated header at %d accepted", i)
		}
	}
}

// --- fuzz targets ----------------------------------------------------------

// sameValues compares two value lists value by value, a DOUBLE by its bit
// pattern: the codec carries every bit, a NaN's included, and NaN != NaN
// defeats reflect.DeepEqual. Bits are also stricter than == on ±0.
func sameValues(a, b []val.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		y := b[i]
		if x.Kind != y.Kind || x.I != y.I || x.S != y.S || math.Float64bits(x.F) != math.Float64bits(y.F) {
			return false
		}
	}
	return true
}

// FuzzFrameDecode throws raw bytes at both frame readers: the plain
// io.Reader one, and the *bufio.Reader one over a recycled buffer whose
// capacity is below, equal to and above the frame's. Neither may panic,
// both must return the same (typ, payload) or both an error, and an
// accepted frame must re-encode to the bytes it consumed. A length prefix
// past MaxFrame is refused by both before anything payload-sized is
// allocated. An accepted payload is also read as a cancel request, which
// the server decodes from a connection's first frame: one that decodes
// must re-encode to a request that decodes the same.
func FuzzFrameDecode(f *testing.F) {
	seed := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		WriteFrame(&buf, typ, payload)
		return buf.Bytes()
	}
	f.Add(seed(MsgHello, helloMsg{Version: 1, Token: "t", ClientName: "n"}.encode()))
	f.Add(seed(MsgExec, execMsg{SQL: "select 1"}.encode()))
	f.Add(seed(MsgRowBatch, encodeRowBatch([][]val.Value{{val.NewInt(1)}})))
	f.Add(seed(MsgError, errMsg{Code: CodeRetry, Message: "x"}.encode()))
	f.Add(seed(MsgCancel, AppendCancel(nil, 7, [8]byte{1, 2, 3, 4, 5, 6, 7, 8}, 300)))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0x01})
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before runtime.MemStats
		n := -1
		if len(data) >= frameHeader {
			n = int(binary.LittleEndian.Uint32(data))
		}
		if n > MaxFrame {
			runtime.ReadMemStats(&before)
		}
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		// Recycled buffers of the frame's size, one byte short and one
		// over, filled with stale bytes; only sizes the input can hold, so
		// a hostile length makes the test itself allocate nothing big.
		spares := []int{0}
		if n >= 0 && n+frameHeader <= len(data) {
			spares = append(spares, max(n-1, 0), n, n+1)
		}
		for _, size := range spares {
			buf := bytes.Repeat([]byte{0xee}, size)
			typ2, payload2, err2 := ReadFrameInto(bufio.NewReaderSize(bytes.NewReader(data), 16), buf)
			if (err == nil) != (err2 == nil) {
				t.Fatalf("spare %d: plain reader err %v, buffered reader err %v", size, err, err2)
			}
			if err == nil && (typ2 != typ || !bytes.Equal(payload2, payload)) {
				t.Fatalf("spare %d: buffered reader read 0x%02x %x, plain 0x%02x %x", size, typ2, payload2, typ, payload)
			}
			if err == nil && n > 0 && size >= n && &payload2[0] != &buf[0] {
				t.Fatalf("a %d-byte payload did not reuse a %d-byte buffer", n, size)
			}
		}
		if n > MaxFrame {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			if err == nil || after.TotalAlloc-before.TotalAlloc > MaxFrame/4 {
				t.Fatalf("length %d: err %v after allocating %d bytes", n, err, after.TotalAlloc-before.TotalAlloc)
			}
		}
		if err != nil {
			return
		}
		if id, secret, stmt, err := decodeCancel(payload); err == nil {
			id2, secret2, stmt2, err := decodeCancel(AppendCancel(nil, id, secret, stmt))
			if err != nil || id2 != id || secret2 != secret || stmt2 != stmt {
				t.Fatalf("cancel request (%d, %x, %d) re-decodes to (%d, %x, %d), %v", id, secret, stmt, id2, secret2, stmt2, err)
			}
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}

// TestFrameTruncatedHeader: a stream that ends inside a header is
// io.ErrUnexpectedEOF on both readers, and one that ends before a header
// is io.EOF.
func TestFrameTruncatedHeader(t *testing.T) {
	var frame bytes.Buffer
	WriteFrame(&frame, MsgExec, []byte("payload"))
	for i := 0; i < frameHeader; i++ {
		want := io.ErrUnexpectedEOF
		if i == 0 {
			want = io.EOF
		}
		data := frame.Bytes()[:i]
		if _, _, err := ReadFrame(bytes.NewReader(data)); err != want {
			t.Errorf("plain reader, %d header bytes: %v, want %v", i, err, want)
		}
		if _, _, err := ReadFrameInto(bufio.NewReader(bytes.NewReader(data)), make([]byte, 64)); err != want {
			t.Errorf("buffered reader, %d header bytes: %v, want %v", i, err, want)
		}
	}
}

// FuzzExecDecode round-trips the exec payload decoder (the param codec):
// whatever decodes must encode back and decode to the same message.
func FuzzExecDecode(f *testing.F) {
	f.Add(execMsg{SQL: "select 1"}.encode())
	f.Add(execMsg{StmtID: 3, DeadlineUS: 1000,
		Params: []val.Value{val.Null, val.NewInt(-5), val.NewDouble(1.5), val.NewStr("s")}}.encode())
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeExec(data, nil)
		if err != nil {
			return
		}
		m2, err := decodeExec(m.encode(), nil)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m.StmtID != m2.StmtID || m.SQL != m2.SQL || m.DeadlineUS != m2.DeadlineUS || !sameValues(m.Params, m2.Params) {
			t.Fatalf("round trip mismatch: %+v vs %+v", m, m2)
		}
	})
}

// FuzzValueDecode exercises the bare value codec, including hostile
// count/length prefixes.
func FuzzValueDecode(f *testing.F) {
	f.Add(appendValues(nil, []val.Value{val.NewInt(1), val.NewStr("abc"), val.Null}))
	f.Add(appendValues(nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		vs, _, err := readValues(data)
		if err != nil {
			return
		}
		got, rest, err := readValues(appendValues(nil, vs))
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-decode failed: %v (%d trailing)", err, len(rest))
		}
		if !sameValues(got, vs) {
			t.Fatalf("round trip mismatch: %v vs %v", got, vs)
		}
	})
}

func readValues(b []byte) ([]val.Value, []byte, error) { return appendReadValues(nil, b) }
