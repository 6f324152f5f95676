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
	"sync/atomic"
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

// Client is one server connection. A Client runs one statement at a time;
// Cancel may be called from another goroutine while it does.
type Client struct {
	nc   net.Conn
	br   *bufio.Reader
	rbuf []byte // storage of the last frame read; a payload is valid until the next read
	bw   *bufio.Writer

	// What a cancel request needs: where to dial, the connection's id and
	// secret from its hello-ok, and the count of exec frames sent.
	addr        string
	dialTimeout time.Duration
	id          uint64
	secret      [8]byte
	execs       atomic.Uint64

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
		nc:          nc,
		br:          bufio.NewReaderSize(nc, 64<<10),
		bw:          bufio.NewWriterSize(nc, 64<<10),
		addr:        addr,
		dialTimeout: dt,
	}
	hello := server.EncodeHello(opts.Token, opts.Name, uint64(opts.StatementDeadline.Microseconds()))
	if err := c.sendRaw(server.MsgHello, hello); err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetReadDeadline(time.Now().Add(dt))
	typ, payload, err := c.readFrame()
	nc.SetReadDeadline(time.Time{})
	switch {
	case err != nil:
	case typ == server.MsgError:
		err = decodeWireError(payload)
	case typ != server.MsgHelloOK:
		err = fmt.Errorf("client: unexpected handshake reply 0x%02x", typ)
	default:
		c.id, c.secret, err = server.DecodeHelloOK(payload)
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// Cancel asks the server, over a connection of its own, to cancel the
// statement in flight on this one, and returns once the request is sent.
// The Query or Exec waiting for that statement returns an error matching
// ErrCancelled; with none in flight, nothing is cancelled, neither now
// nor when the next one runs.
func (c *Client) Cancel() error {
	nc, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return err
	}
	defer nc.Close()
	return server.WriteFrame(nc, server.MsgCancel, server.AppendCancel(nil, c.id, c.secret, c.execs.Load()))
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

// Exec runs the prepared statement, discarding any rows.
func (st *Stmt) Exec(params ...val.Value) (Result, error) {
	res, _, err := st.c.roundTrip(st.id, "", 0, params)
	return res, err
}

// Query runs the prepared statement and returns its rows.
func (st *Stmt) Query(params ...val.Value) (*Rows, error) {
	return st.c.query(st.id, "", params)
}

// Exec runs one inline statement, discarding any rows.
func (c *Client) Exec(sql string, params ...val.Value) (Result, error) {
	res, _, err := c.roundTrip(0, sql, 0, params)
	return res, err
}

// Query runs one inline statement and returns its rows.
func (c *Client) Query(sql string, params ...val.Value) (*Rows, error) {
	return c.query(0, sql, params)
}

// query runs a statement and returns its rows, an empty set if it has none.
func (c *Client) query(stmtID uint64, sql string, params []val.Value) (*Rows, error) {
	_, rows, err := c.roundTrip(stmtID, sql, 0, params)
	if err == nil && rows == nil {
		rows = &Rows{}
	}
	return rows, err
}

// roundTrip sends one exec and consumes frames through done/error.
func (c *Client) roundTrip(stmtID uint64, sql string, deadlineUS uint64, params []val.Value) (Result, *Rows, error) {
	exec := func(b []byte) []byte { return server.AppendExec(b, stmtID, sql, deadlineUS, params) }
	c.execs.Add(1)
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
