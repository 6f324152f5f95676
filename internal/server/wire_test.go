package server

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"anywheredb/internal/val"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {0x00}, bytes.Repeat([]byte{0xab}, 100_000)}
	for _, p := range payloads {
		buf.Reset()
		if err := writeFrame(&buf, msgExec, p); err != nil {
			t.Fatal(err)
		}
		typ, got, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != msgExec || !bytes.Equal(got, p) {
			t.Fatalf("round trip mismatch: typ=%#x len=%d want %d", typ, len(got), len(p))
		}
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	// A hostile length prefix beyond MaxFrame must fail without allocating.
	hdr := []byte{0xff, 0xff, 0xff, 0xff, byte(msgExec)}
	if _, _, err := readFrame(bytes.NewReader(hdr)); err == nil {
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
	out, err := decodeExec(in.encode())
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
	got, err := decodeRowBatch(encodeRowBatch(rows))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("got %v want %v", got, rows)
	}
	cols := []string{"a", "b", ""}
	gotCols, err := decodeRowHeader(encodeRowHeader(cols))
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
		got, err := decodeRowBatch(encodeRowBatch(rows))
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
	in := errMsg{Code: codeRetry, Message: "try again"}
	out, err := decodeErr(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v want %+v", out, in)
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	full := execMsg{SQL: "select 1", Params: []val.Value{val.NewStr("abc")}}.encode()
	for i := 0; i < len(full); i++ {
		if _, err := decodeExec(full[:i]); err == nil {
			t.Fatalf("truncated exec at %d accepted", i)
		}
	}
	hdr := encodeRowHeader([]string{"a", "b"})
	for i := 0; i < len(hdr); i++ {
		if _, err := decodeRowHeader(hdr[:i]); err == nil {
			t.Fatalf("truncated header at %d accepted", i)
		}
	}
}

// --- fuzz targets ----------------------------------------------------------

// FuzzFrameDecode throws raw bytes at the frame reader: it must never
// panic, and an accepted frame must re-encode to the same bytes it
// consumed.
func FuzzFrameDecode(f *testing.F) {
	seed := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		writeFrame(&buf, typ, payload)
		return buf.Bytes()
	}
	f.Add(seed(msgHello, helloMsg{Version: 1, Token: "t", ClientName: "n"}.encode()))
	f.Add(seed(msgExec, execMsg{SQL: "select 1"}.encode()))
	f.Add(seed(msgRowBatch, encodeRowBatch([][]val.Value{{val.NewInt(1)}})))
	f.Add(seed(msgError, errMsg{Code: codeRetry, Message: "x"}.encode()))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0x01})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, payload); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}

// FuzzExecDecode round-trips the exec payload decoder (the param codec):
// whatever decodes must encode back and decode to the same message.
func FuzzExecDecode(f *testing.F) {
	f.Add(execMsg{SQL: "select 1"}.encode())
	f.Add(execMsg{StmtID: 3, DeadlineUS: 1000,
		Params: []val.Value{val.Null, val.NewInt(-5), val.NewDouble(1.5), val.NewStr("s")}}.encode())
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeExec(data)
		if err != nil {
			return
		}
		m2, err := decodeExec(m.encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
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
		if !reflect.DeepEqual(got, vs) {
			t.Fatalf("round trip mismatch")
		}
	})
}
