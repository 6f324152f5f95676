// Package server implements the network server mode: a TCP listener
// speaking a small length-prefixed prepared-statement protocol over
// embedded core connections, with self-managing admission control,
// per-connection statement deadlines, bounded send buffers with
// slow-client disconnect, and graceful drain.
//
// Wire format. Every message is one frame:
//
//	uint32 LE payload length | 1 byte message type | payload
//
// Payload fields use uvarint/varint integers and uvarint-length-prefixed
// strings. A frame larger than MaxFrame is a protocol error and closes the
// connection. The codec is pure (no I/O in the encode/decode helpers) so
// it can be fuzzed directly.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"anywheredb/internal/val"
)

// MaxFrame bounds a single frame's payload. Row batches are chunked well
// below this; the cap exists so a corrupt or malicious length prefix
// cannot make either side allocate unboundedly.
const MaxFrame = 16 << 20

// ProtoVersion is the protocol revision sent in hello / hello-ok.
const ProtoVersion = 1

// Message types. Client→server types have the high bit clear,
// server→client types have it set.
const (
	msgHello     byte = 0x01 // version, token, client name, default deadline µs
	msgPrepare   byte = 0x02 // sql
	msgExec      byte = 0x03 // stmt id (0 = inline sql), sql, deadline µs, params
	msgCancel    byte = 0x04 // out-of-band: cancel the statement in flight
	msgCloseStmt byte = 0x05 // stmt id
	msgQuit      byte = 0x06 // orderly connection close

	msgHelloOK   byte = 0x81 // version, connection id
	msgPrepareOK byte = 0x82 // stmt id
	msgRowHeader byte = 0x83 // column names
	msgRowBatch  byte = 0x84 // row count, rows
	msgDone      byte = 0x85 // rows affected
	msgError     byte = 0x86 // status code, message
)

// Error status codes carried by msgError. codeRetry tells the client the
// statement did not run (shed, draining, or a transient fault) and can be
// retried safely; codeCancel covers deadline expiry and explicit cancel;
// codeProtocol precedes a server-side connection close.
const (
	codeError    byte = 1
	codeRetry    byte = 2
	codeCancel   byte = 3
	codeProtocol byte = 4
)

// errFrameTruncated is the shared decode error: a field extends past the
// end of the payload.
var errFrameTruncated = errors.New("server: truncated frame payload")

// writeFrame writes one frame. The caller owns buffering and flushing.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("server: frame payload %d exceeds limit %d", len(payload), MaxFrame)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, enforcing the payload cap.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("server: frame payload %d exceeds limit %d", n, MaxFrame)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// --- payload primitives ----------------------------------------------------
//
// The uvarint and string forms are exported: the replication stream
// (internal/repl) builds its payloads from the same primitives, so the fuzz
// targets here cover both protocols.

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// ReadUvarint decodes one uvarint from the front of b and returns the rest.
func ReadUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errFrameTruncated
	}
	return v, b[n:], nil
}

func readVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, errFrameTruncated
	}
	return v, b[n:], nil
}

// ReadString decodes one length-prefixed string from the front of b and
// returns the rest.
func ReadString(b []byte) (string, []byte, error) {
	n, rest, err := ReadUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, errFrameTruncated
	}
	return string(rest[:n]), rest[n:], nil
}

// --- value codec -----------------------------------------------------------

// Value kind tags on the wire. Distinct from val.Kind so the wire format
// stays stable if the engine's enum is ever reordered.
const (
	wireNull   byte = 0
	wireInt    byte = 1
	wireDouble byte = 2
	wireStr    byte = 3
)

func appendValue(b []byte, v val.Value) []byte {
	switch v.Kind {
	case val.KInt:
		b = append(b, wireInt)
		return appendVarint(b, v.I)
	case val.KDouble:
		b = append(b, wireDouble)
		var f [8]byte
		binary.LittleEndian.PutUint64(f[:], math.Float64bits(v.F))
		return append(b, f[:]...)
	case val.KStr:
		b = append(b, wireStr)
		return AppendString(b, v.S)
	default:
		return append(b, wireNull)
	}
}

func readValue(b []byte) (val.Value, []byte, error) {
	if len(b) == 0 {
		return val.Null, nil, errFrameTruncated
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case wireNull:
		return val.Null, b, nil
	case wireInt:
		i, rest, err := readVarint(b)
		if err != nil {
			return val.Null, nil, err
		}
		return val.NewInt(i), rest, nil
	case wireDouble:
		if len(b) < 8 {
			return val.Null, nil, errFrameTruncated
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(b[:8]))
		return val.NewDouble(f), b[8:], nil
	case wireStr:
		s, rest, err := ReadString(b)
		if err != nil {
			return val.Null, nil, err
		}
		return val.NewStr(s), rest, nil
	default:
		return val.Null, nil, fmt.Errorf("server: unknown value tag 0x%02x", tag)
	}
}

func appendValues(b []byte, vs []val.Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendValue(b, v)
	}
	return b
}

func readValues(b []byte) ([]val.Value, []byte, error) {
	n, b, err := ReadUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) { // each value takes ≥1 byte; rejects hostile counts
		return nil, nil, errFrameTruncated
	}
	vs := make([]val.Value, 0, n)
	for i := uint64(0); i < n; i++ {
		var v val.Value
		v, b, err = readValue(b)
		if err != nil {
			return nil, nil, err
		}
		vs = append(vs, v)
	}
	return vs, b, nil
}

// --- message payloads ------------------------------------------------------

type helloMsg struct {
	Version    uint64
	Token      string
	ClientName string
	DeadlineUS uint64 // default per-statement deadline, 0 = server default
}

func (m helloMsg) encode() []byte {
	b := AppendUvarint(nil, m.Version)
	b = AppendString(b, m.Token)
	b = AppendString(b, m.ClientName)
	return AppendUvarint(b, m.DeadlineUS)
}

func decodeHello(b []byte) (m helloMsg, err error) {
	if m.Version, b, err = ReadUvarint(b); err != nil {
		return m, err
	}
	if m.Token, b, err = ReadString(b); err != nil {
		return m, err
	}
	if m.ClientName, b, err = ReadString(b); err != nil {
		return m, err
	}
	m.DeadlineUS, _, err = ReadUvarint(b)
	return m, err
}

type execMsg struct {
	StmtID     uint64 // 0: SQL is inline
	SQL        string // empty when StmtID != 0
	DeadlineUS uint64 // 0: connection default
	Params     []val.Value
}

func (m execMsg) encode() []byte {
	b := AppendUvarint(nil, m.StmtID)
	b = AppendString(b, m.SQL)
	b = AppendUvarint(b, m.DeadlineUS)
	return appendValues(b, m.Params)
}

func decodeExec(b []byte) (m execMsg, err error) {
	if m.StmtID, b, err = ReadUvarint(b); err != nil {
		return m, err
	}
	if m.SQL, b, err = ReadString(b); err != nil {
		return m, err
	}
	if m.DeadlineUS, b, err = ReadUvarint(b); err != nil {
		return m, err
	}
	m.Params, _, err = readValues(b)
	return m, err
}

type errMsg struct {
	Code    byte
	Message string
}

func (m errMsg) encode() []byte {
	b := []byte{m.Code}
	return AppendString(b, m.Message)
}

func decodeErr(b []byte) (m errMsg, err error) {
	if len(b) == 0 {
		return m, errFrameTruncated
	}
	m.Code = b[0]
	m.Message, _, err = ReadString(b[1:])
	return m, err
}

func encodeRowHeader(cols []string) []byte {
	b := AppendUvarint(nil, uint64(len(cols)))
	for _, c := range cols {
		b = AppendString(b, c)
	}
	return b
}

func decodeRowHeader(b []byte) ([]string, error) {
	n, b, err := ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b))+1 {
		return nil, errFrameTruncated
	}
	cols := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		var c string
		if c, b, err = ReadString(b); err != nil {
			return nil, err
		}
		cols = append(cols, c)
	}
	return cols, nil
}

func encodeRowBatch(rows [][]val.Value) []byte {
	b := AppendUvarint(nil, uint64(len(rows)))
	for _, r := range rows {
		b = appendValues(b, r)
	}
	return b
}

func decodeRowBatch(b []byte) ([][]val.Value, error) {
	n, b, err := ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b))+1 {
		return nil, errFrameTruncated
	}
	rows := make([][]val.Value, 0, n)
	for i := uint64(0); i < n; i++ {
		var r []val.Value
		if r, b, err = readValues(b); err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}
