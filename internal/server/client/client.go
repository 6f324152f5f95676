// Package client is the Go client for the anywheredb network server: it
// dials the length-prefixed prepared-statement protocol, runs statements
// with parameters, and streams result batches. The server's retryable
// shed/drain/transient responses surface as errors matching ErrRetryable
// so callers can loop.
package client

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"anywheredb/internal/server"
	"anywheredb/internal/val"
)

// ErrRetryable marks a statement the server refused or lost transiently:
// it did not run (shed, draining) or failed in a way expected to clear on
// retry. errors.Is(err, ErrRetryable) holds.
var ErrRetryable = errors.New("client: retryable server error")

// ErrCancelled marks a statement ended by cancel or deadline expiry.
var ErrCancelled = errors.New("client: statement cancelled")

// Options configures Dial.
type Options struct {
	// Token is the auth token presented in hello.
	Token string
	// Name identifies the client in sys.connections.
	Name string
	// StatementDeadline is the connection-default per-statement deadline
	// (0 = server default).
	StatementDeadline time.Duration
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
}

// Result reports a statement's effect.
type Result struct {
	RowsAffected int64
}

// Rows is a fully-received query result.
type Rows struct {
	Cols []string
	Data [][]val.Value
}

// Client is one server connection. A Client runs one statement at a time.
type Client struct {
	nc   net.Conn
	br   *bufio.Reader
	rbuf []byte // storage of the last frame read; a payload is valid until the next read
	bw   *bufio.Writer

	closed bool
}

// Dial connects and completes the hello handshake.
func Dial(addr string, opts Options) (*Client, error) {
	dt := opts.DialTimeout
	if dt <= 0 {
		dt = 5 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, dt)
	if err != nil {
		return nil, err
	}
	c := &Client{
		nc: nc,
		br: bufio.NewReaderSize(nc, 64<<10),
		bw: bufio.NewWriterSize(nc, 64<<10),
	}
	hello := server.EncodeHello(opts.Token, opts.Name, uint64(opts.StatementDeadline.Microseconds()))
	if err := c.sendRaw(server.MsgHello, hello); err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetReadDeadline(time.Now().Add(dt))
	typ, payload, err := c.readFrame()
	nc.SetReadDeadline(time.Time{})
	if err != nil {
		nc.Close()
		return nil, err
	}
	if typ == server.MsgError {
		nc.Close()
		return nil, decodeWireError(payload)
	}
	if typ != server.MsgHelloOK {
		nc.Close()
		return nil, fmt.Errorf("client: unexpected handshake reply 0x%02x", typ)
	}
	return c, nil
}

// Close sends quit and closes the socket.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.sendRaw(server.MsgQuit, nil)
	return c.nc.Close()
}

// Stmt is a server-side prepared statement.
type Stmt struct {
	c  *Client
	id uint64
}

// Prepare registers sql on the server and returns its handle.
func (c *Client) Prepare(sql string) (*Stmt, error) {
	if err := c.send(server.MsgPrepare, func(b []byte) []byte { return server.AppendString(b, sql) }); err != nil {
		return nil, err
	}
	typ, payload, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	if typ == server.MsgError {
		return nil, decodeWireError(payload)
	}
	if typ != server.MsgPrepareOK {
		return nil, fmt.Errorf("client: unexpected prepare reply 0x%02x", typ)
	}
	id, _ := binary.Uvarint(payload)
	return &Stmt{c: c, id: id}, nil
}

// Close releases the prepared statement on the server.
func (st *Stmt) Close() error {
	if err := st.c.send(server.MsgCloseStmt, func(b []byte) []byte { return server.AppendUvarint(b, st.id) }); err != nil {
		return err
	}
	_, _, err := st.c.readFrame() // done ack
	return err
}

// Exec runs the prepared statement, discarding any rows.
func (st *Stmt) Exec(params ...val.Value) (Result, error) {
	res, _, err := st.c.roundTrip(st.id, "", 0, params)
	return res, err
}

// Query runs the prepared statement and returns its rows.
func (st *Stmt) Query(params ...val.Value) (*Rows, error) {
	_, rows, err := st.c.roundTrip(st.id, "", 0, params)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		rows = &Rows{}
	}
	return rows, nil
}

// Exec runs one inline statement, discarding any rows.
func (c *Client) Exec(sql string, params ...val.Value) (Result, error) {
	res, _, err := c.roundTrip(0, sql, 0, params)
	return res, err
}

// Query runs one inline statement and returns its rows.
func (c *Client) Query(sql string, params ...val.Value) (*Rows, error) {
	_, rows, err := c.roundTrip(0, sql, 0, params)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		rows = &Rows{}
	}
	return rows, nil
}

// roundTrip sends one exec and consumes frames through done/error.
func (c *Client) roundTrip(stmtID uint64, sql string, deadlineUS uint64, params []val.Value) (Result, *Rows, error) {
	exec := func(b []byte) []byte { return server.AppendExec(b, stmtID, sql, deadlineUS, params) }
	if err := c.send(server.MsgExec, exec); err != nil {
		return Result{}, nil, err
	}
	var rows *Rows
	for {
		typ, payload, err := c.readFrame()
		if err != nil {
			return Result{}, nil, err
		}
		switch typ {
		case server.MsgRowHeader:
			cols, err := server.DecodeRowHeader(payload)
			if err != nil {
				return Result{}, nil, err
			}
			rows = &Rows{Cols: cols}
		case server.MsgRowBatch:
			batch, err := server.DecodeRowBatch(payload)
			if err != nil {
				return Result{}, nil, err
			}
			if rows == nil {
				return Result{}, nil, errors.New("client: row batch before header")
			}
			if rows.Data == nil {
				rows.Data = batch
			} else {
				rows.Data = append(rows.Data, batch...)
			}
		case server.MsgDone:
			n, _ := binary.Varint(payload)
			return Result{RowsAffected: n}, rows, nil
		case server.MsgError:
			return Result{}, nil, decodeWireError(payload)
		default:
			return Result{}, nil, fmt.Errorf("client: unexpected frame 0x%02x", typ)
		}
	}
}

// send writes and flushes one frame, its payload encoded by enc straight
// into the send buffer.
func (c *Client) send(typ byte, enc func([]byte) []byte) error {
	b, err := server.AppendFrame(c.bw.AvailableBuffer(), typ, enc)
	if err != nil {
		return err
	}
	if _, err := c.bw.Write(b); err != nil {
		return err
	}
	return c.bw.Flush()
}

// sendRaw sends a frame whose payload is already built.
func (c *Client) sendRaw(typ byte, payload []byte) error {
	return c.send(typ, func(b []byte) []byte { return append(b, payload...) })
}

// readFrame reads one frame into the client's scratch buffer: the payload
// is valid until the next read, and the decoders copy what they return.
func (c *Client) readFrame() (byte, []byte, error) {
	typ, payload, err := server.ReadFrameInto(c.br, c.rbuf)
	if cap(payload) > cap(c.rbuf) {
		c.rbuf = payload
	}
	return typ, payload, err
}

func decodeWireError(payload []byte) error {
	code, msg, err := server.DecodeError(payload)
	if err != nil {
		return err
	}
	switch code {
	case server.CodeRetry:
		return fmt.Errorf("%w: %s", ErrRetryable, msg)
	case server.CodeCancel:
		return fmt.Errorf("%w: %s", ErrCancelled, msg)
	default:
		return fmt.Errorf("client: server error: %s", msg)
	}
}
