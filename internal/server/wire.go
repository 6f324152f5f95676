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
// it can be fuzzed directly. Encoders append to the caller's slice, so a
// frame is built in the send buffer it leaves from (AppendFrame), and a
// frame can be read into a recycled buffer (ReadFrameInto) because
// decoders copy out every string they keep.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"anywheredb/internal/val"
)

// MaxFrame bounds a single frame's payload. Row batches are chunked well
// below this; the cap exists so a corrupt or malicious length prefix
// cannot make either side allocate unboundedly.
const MaxFrame = 16 << 20

// ProtoVersion is the protocol revision sent in hello / hello-ok.
const ProtoVersion = 2

// Message types. Client→server types have the high bit clear,
// server→client types have it set. A cancel request is the one frame of a
// connection of its own; the statement it names is the count of exec
// frames its connection had sent up to and including it. It gets no answer.
const (
	MsgHello     byte = 0x01 // version, token, client name, default deadline µs
	MsgPrepare   byte = 0x02 // sql
	MsgExec      byte = 0x03 // stmt id (0 = inline sql), sql, deadline µs, params
	MsgCancel    byte = 0x04 // cancel request, first frame only: connection id, secret, statement number
	MsgCloseStmt byte = 0x05 // stmt id
	MsgQuit      byte = 0x06 // orderly connection close

	MsgHelloOK   byte = 0x81 // version, connection id, 8-byte cancel secret
	MsgPrepareOK byte = 0x82 // stmt id
	MsgRowHeader byte = 0x83 // column names
	MsgRowBatch  byte = 0x84 // row count, rows
	MsgDone      byte = 0x85 // rows affected
	MsgError     byte = 0x86 // status code, message
)

// Error status codes carried by MsgError. CodeRetry tells the client the
// statement did not run (shed, draining, a transient fault, or an
// autocommit deadlock victim) and can be retried safely; CodeCancel covers deadline expiry and explicit cancel;
// CodeProtocol precedes a server-side connection close.
const (
	CodeError    byte = 1
	CodeRetry    byte = 2
	CodeCancel   byte = 3
	CodeProtocol byte = 4
)

// errFrameTruncated is the shared decode error: a field extends past the
// end of the payload.
var errFrameTruncated = errors.New("server: truncated frame payload")

// frameHeader is the size of a frame's length and type prefix.
const frameHeader = 5

func errFrameSize(n uint64) error {
	return fmt.Errorf("server: frame payload %d exceeds limit %d", n, MaxFrame)
}

// appendHeader appends the header of a frame with an n-byte payload.
func appendHeader(b []byte, typ byte, n int) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(n)), typ)
}

// AppendFrame appends one frame to b: the header, the payload enc appends
// after it, and the payload's length patched into the header. Both ends
// build their frames in their bufio.Writer's AvailableBuffer, so a frame
// is encoded where it is sent from; one that outgrows that room is moved
// by append, which is correct but allocates.
func AppendFrame(b []byte, typ byte, enc func([]byte) []byte) ([]byte, error) {
	at := len(b)
	b = enc(appendHeader(b, typ, 0))
	n := len(b) - at - frameHeader
	if n > MaxFrame {
		return b[:at], errFrameSize(uint64(n))
	}
	binary.LittleEndian.PutUint32(b[at:], uint32(n))
	return b, nil
}

// WriteFrame writes one frame; the caller owns flushing. Into a
// *bufio.Writer the header is built in the buffer's free room.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return errFrameSize(uint64(len(payload)))
	}
	var b []byte
	if bw, ok := w.(*bufio.Writer); ok {
		b = bw.AvailableBuffer()
	}
	if _, err := w.Write(appendHeader(b, typ, len(payload))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame into a new payload, enforcing the payload cap.
// From a *bufio.Reader the header is read in place (ReadFrameInto).
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	if br, ok := r.(*bufio.Reader); ok {
		return ReadFrameInto(br, nil)
	}
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if payload, err = readPayload(r, binary.LittleEndian.Uint32(hdr[:]), nil); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// ReadFrameInto reads one frame from br. The header is peeked in br's own
// buffer, and the payload is read into buf's storage when it has the
// capacity (a new slice otherwise), so the payload is valid only until buf
// is reused: decoders copy every string they keep out of it.
func ReadFrameInto(br *bufio.Reader, buf []byte) (typ byte, payload []byte, err error) {
	hdr, err := br.Peek(frameHeader)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	typ, n := hdr[4], binary.LittleEndian.Uint32(hdr)
	br.Discard(frameHeader) // buffered by the Peek: cannot fail
	if payload, err = readPayload(br, n, buf); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// readPayload reads an n-byte payload into buf's storage when it has the
// capacity, into a new slice otherwise. A length past MaxFrame is refused
// before anything payload-sized is allocated.
func readPayload(r io.Reader, n uint32, buf []byte) ([]byte, error) {
	if n > MaxFrame {
		return nil, errFrameSize(uint64(n))
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
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

// appendReadValues reads what appendValues wrote, appending the values to
// dst.
func appendReadValues(dst []val.Value, b []byte) ([]val.Value, []byte, error) {
	n, b, err := ReadUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) { // each value takes ≥1 byte; rejects hostile counts
		return nil, nil, errFrameTruncated
	}
	dst = slices.Grow(dst, int(n))
	for i := uint64(0); i < n; i++ {
		var v val.Value
		v, b, err = readValue(b)
		if err != nil {
			return nil, nil, err
		}
		dst = append(dst, v)
	}
	return dst, b, nil
}

// --- message payloads ------------------------------------------------------

type helloMsg struct {
	Version    uint64
	Token      string
	ClientName string
	DeadlineUS uint64 // default per-statement deadline, 0 = server default
}

func (m helloMsg) append(b []byte) []byte {
	b = AppendUvarint(b, m.Version)
	b = AppendString(b, m.Token)
	b = AppendString(b, m.ClientName)
	return AppendUvarint(b, m.DeadlineUS)
}

// EncodeHello builds a hello payload at the current protocol version.
func EncodeHello(token, clientName string, deadlineUS uint64) []byte {
	return helloMsg{Version: ProtoVersion, Token: token, ClientName: clientName, DeadlineUS: deadlineUS}.append(nil)
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

// appendHelloOK appends a hello-ok payload: the protocol version, the
// connection's id and its cancel secret.
func appendHelloOK(b []byte, connID uint64, secret [8]byte) []byte {
	return append(AppendUvarint(AppendUvarint(b, ProtoVersion), connID), secret[:]...)
}

// DecodeHelloOK returns the connection id and cancel secret of a hello-ok.
func DecodeHelloOK(b []byte) (connID uint64, secret [8]byte, err error) {
	if _, b, err = ReadUvarint(b); err == nil {
		connID, secret, _, err = readCancelKey(b)
	}
	return connID, secret, err
}

// AppendCancel appends a cancel-request payload: a connection's id and
// secret, and the number of the statement to cancel.
func AppendCancel(b []byte, connID uint64, secret [8]byte, stmt uint64) []byte {
	return AppendUvarint(append(AppendUvarint(b, connID), secret[:]...), stmt)
}

func decodeCancel(b []byte) (connID uint64, secret [8]byte, stmt uint64, err error) {
	if connID, secret, b, err = readCancelKey(b); err == nil {
		stmt, _, err = ReadUvarint(b)
	}
	return connID, secret, stmt, err
}

// readCancelKey reads a connection id and its cancel secret.
func readCancelKey(b []byte) (connID uint64, secret [8]byte, rest []byte, err error) {
	if connID, b, err = ReadUvarint(b); err == nil && len(b) < len(secret) {
		err = errFrameTruncated
	}
	if err != nil {
		return 0, secret, nil, err
	}
	return connID, [8]byte(b), b[len(secret):], nil
}

type execMsg struct {
	StmtID     uint64 // 0: SQL is inline
	SQL        string // empty when StmtID != 0
	DeadlineUS uint64 // 0: connection default
	Params     []val.Value
}

func (m execMsg) append(b []byte) []byte {
	b = AppendUvarint(b, m.StmtID)
	b = AppendString(b, m.SQL)
	b = AppendUvarint(b, m.DeadlineUS)
	return appendValues(b, m.Params)
}

// EncodeExec builds an exec payload. stmtID 0 means sql is inline.
func EncodeExec(stmtID uint64, sql string, deadlineUS uint64, params []val.Value) []byte {
	return AppendExec(nil, stmtID, sql, deadlineUS, params)
}

// AppendExec appends an exec payload to b.
func AppendExec(b []byte, stmtID uint64, sql string, deadlineUS uint64, params []val.Value) []byte {
	return execMsg{StmtID: stmtID, SQL: sql, DeadlineUS: deadlineUS, Params: params}.append(b)
}

// decodeExec reads an exec frame, appending its parameters to params (a
// vector the caller recycles from frame to frame).
func decodeExec(b []byte, params []val.Value) (m execMsg, err error) {
	if m.StmtID, b, err = ReadUvarint(b); err != nil {
		return m, err
	}
	if m.SQL, b, err = ReadString(b); err != nil {
		return m, err
	}
	if m.DeadlineUS, b, err = ReadUvarint(b); err != nil {
		return m, err
	}
	m.Params, _, err = appendReadValues(params, b)
	return m, err
}

type errMsg struct {
	Code    byte
	Message string
}

func (m errMsg) append(b []byte) []byte {
	return AppendString(append(b, m.Code), m.Message)
}

// DecodeError decodes an error payload into its status code and message.
func DecodeError(b []byte) (code byte, message string, err error) {
	if len(b) == 0 {
		return 0, "", errFrameTruncated
	}
	if message, _, err = ReadString(b[1:]); err != nil {
		return 0, "", err
	}
	return b[0], message, nil
}

func appendRowHeader(b []byte, cols []string) []byte {
	b = AppendUvarint(b, uint64(len(cols)))
	for _, c := range cols {
		b = AppendString(b, c)
	}
	return b
}

// DecodeRowHeader decodes a row-header payload into column names.
func DecodeRowHeader(b []byte) ([]string, error) {
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

func appendRowBatch(b []byte, rows [][]val.Value) []byte {
	b = AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = appendValues(b, r)
	}
	return b
}

// DecodeRowBatch decodes a row batch into one slab of values, sized from
// the first row's width; each row is a window of the slab whose capacity
// ends where the row does, so appending to one row cannot write over the
// next.
func DecodeRowBatch(b []byte) ([][]val.Value, error) {
	n, b, err := ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b))+1 {
		return nil, errFrameTruncated
	}
	w, _, _ := ReadUvarint(b)
	// Every value takes at least a byte, which bounds the slab a hostile
	// width can ask for.
	slab := make([]val.Value, 0, min(n*min(w, uint64(len(b))), uint64(len(b))))
	rows := make([][]val.Value, n)
	for i := range rows {
		from := len(slab)
		if slab, b, err = appendReadValues(slab, b); err != nil {
			return nil, err
		}
		rows[i] = slab[from:]
	}
	// A row wider than the first may have moved the slab: carve every row
	// from where it ended up.
	from := 0
	for i, r := range rows {
		rows[i] = slab[from : from+len(r) : from+len(r)]
		from += len(r)
	}
	return rows, nil
}
