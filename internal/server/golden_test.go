package server_test

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/server"
	"anywheredb/internal/val"
)

// TestWireBytesUnchanged pins the server's frames byte for byte: a
// prepare answer, a query's header, row batch and done, a DML's done, and
// a protocol error. The hello answer is pinned up to its last 8 bytes, the
// connection's random cancel secret, which another connection does not
// share. Each statement's answer must also be exactly what
// server.bytes_sent grew by while it ran.
func TestWireBytesUnchanged(t *testing.T) {
	db, srv := startServer(t, core.Options{}, server.Options{})
	nc, err := net.DialTimeout("tcp", srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	var got bytes.Buffer
	br := bufio.NewReader(io.TeeReader(nc, &got))

	// answer sends one frame and returns every byte the server wrote up to
	// and including the frame that ends the answer.
	answer := func(typ byte, payload []byte) []byte {
		t.Helper()
		got.Reset()
		sent := counterVal(db, "server.bytes_sent")
		if err := server.WriteFrame(nc, typ, payload); err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			typ, p, err := server.ReadFrame(br)
			if err != nil {
				t.Fatal(err)
			}
			n += 5 + len(p)
			if typ != server.MsgRowHeader && typ != server.MsgRowBatch {
				break
			}
		}
		if got.Len() != n {
			t.Fatalf("read %d bytes past the answer's %d", got.Len()-n, n)
		}
		if d := counterVal(db, "server.bytes_sent") - sent; d != int64(n) {
			t.Errorf("server.bytes_sent grew by %d for a %d-byte answer", d, n)
		}
		return bytes.Clone(got.Bytes())
	}
	exec := func(stmtID uint64, sql string, params ...val.Value) []byte {
		return answer(server.MsgExec, server.EncodeExec(stmtID, sql, 0, params))
	}

	// Version 2, connection 1, and the secret.
	hello := answer(server.MsgHello, server.EncodeHello("", "golden", 0))
	if h, want := hex.EncodeToString(hello), "0a00000081"+"0201"; len(hello) != 15 || !strings.HasPrefix(h, want) {
		t.Errorf("hello: the server sent\n%s\nwant\n%s and 8 bytes", h, want)
	} else if other := dialRaw(t, srv); bytes.Equal(other.secret[:], hello[7:]) {
		t.Errorf("two connections got the same secret %x", other.secret)
	}

	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"create", exec(0, "CREATE TABLE g (a INT, b VARCHAR(8), d DOUBLE)"),
			"0100000085" + "00"},
		{"insert", exec(0, "INSERT INTO g VALUES (?, ?, ?), (?, ?, ?)",
			val.NewInt(1), val.NewStr("héllo"), val.NewDouble(2.5),
			val.NewInt(-2), val.Null, val.NewDouble(-0.25)),
			"0100000085" + "04"},
		{"prepare", answer(server.MsgPrepare, server.AppendString(nil, "SELECT b FROM g WHERE a = ?")),
			"0100000082" + "01"},
		{"query", exec(0, "SELECT a, b, d FROM g ORDER BY a"),
			"0700000083" + "03" + "0161" + "0162" + "0164" +
				"2200000084" + "02" +
				"03" + "0103" + "00" + "02000000000000d0bf" +
				"03" + "0102" + "030668c3a96c6c6f" + "020000000000000440" +
				"0100000085" + "04"},
		{"prepared query", exec(1, "", val.NewInt(1)),
			"0300000083" + "01" + "0162" +
				"0a00000084" + "01" + "01" + "030668c3a96c6c6f" +
				"0100000085" + "02"},
		{"error", exec(9, ""),
			"1800000086" + "04" + "16" + hex.EncodeToString([]byte("unknown statement id 9"))},
	} {
		if h := hex.EncodeToString(c.got); h != c.want {
			t.Errorf("%s: the server sent\n%s\nwant\n%s", c.name, h, c.want)
		}
	}
}
