package server

import (
	"io"

	"anywheredb/internal/val"
)

// Exported wire surface: the minimal codec API the client package (and
// the fuzz targets) build on. The unexported forms stay the canonical
// implementation; these are thin aliases.

// Message types (see the package comment for the frame layout).
const (
	MsgHello     = msgHello
	MsgPrepare   = msgPrepare
	MsgExec      = msgExec
	MsgCancel    = msgCancel
	MsgCloseStmt = msgCloseStmt
	MsgQuit      = msgQuit

	MsgHelloOK   = msgHelloOK
	MsgPrepareOK = msgPrepareOK
	MsgRowHeader = msgRowHeader
	MsgRowBatch  = msgRowBatch
	MsgDone      = msgDone
	MsgError     = msgError
)

// Error status codes carried by MsgError.
const (
	CodeError    = codeError
	CodeRetry    = codeRetry
	CodeCancel   = codeCancel
	CodeProtocol = codeProtocol
)

// WriteFrame writes one frame: uint32 LE payload length, type byte,
// payload.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	return writeFrame(w, typ, payload)
}

// ReadFrame reads one frame, enforcing the MaxFrame payload cap.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	return readFrame(r)
}

// EncodeHello builds a hello payload at the current protocol version.
func EncodeHello(token, clientName string, deadlineUS uint64) []byte {
	return helloMsg{Version: ProtoVersion, Token: token, ClientName: clientName, DeadlineUS: deadlineUS}.encode()
}

// EncodeExec builds an exec payload. stmtID 0 means sql is inline.
func EncodeExec(stmtID uint64, sql string, deadlineUS uint64, params []val.Value) []byte {
	return execMsg{StmtID: stmtID, SQL: sql, DeadlineUS: deadlineUS, Params: params}.encode()
}

// DecodeRowHeader decodes a row-header payload into column names.
func DecodeRowHeader(payload []byte) ([]string, error) { return decodeRowHeader(payload) }

// DecodeRowBatch decodes a row-batch payload.
func DecodeRowBatch(payload []byte) ([][]val.Value, error) { return decodeRowBatch(payload) }

// DecodeError decodes an error payload into its status code and message.
func DecodeError(payload []byte) (code byte, message string, err error) {
	m, err := decodeErr(payload)
	if err != nil {
		return 0, "", err
	}
	return m.Code, m.Message, nil
}
