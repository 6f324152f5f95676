// Package repl implements WAL-shipping replication: a primary streams its
// sealed log frames over the network server's wire framing to read
// replicas, which ingest them into their own logs (durability for the
// synchronous-commit acknowledgement) and replay them through the engine's
// streaming applier (core.Applier). Replicas self-register on connect,
// publish their apply lag back to the primary, and serve snapshot reads;
// the primary's read router forwards read-only statements to the
// least-loaded caught-up replica, so read capacity scales by starting
// processes — no placement or routing knobs, in the spirit of the paper's
// no-DBA philosophy.
//
// The stream protocol rides the same length-prefixed frames as the client
// protocol (server.WriteFrame/ReadFrame) with its own message-type space:
//
//	replica → primary
//	  0x40 hello     ver | token | name | logID | lsn
//	  0x41 ack       lsn           ingested, durable and applied through lsn
//	  0x42 readAddr  addr          (the replica's SQL endpoint, "" = none)
//	primary → replica
//	  0x50 resume    (empty)       hello position accepted; shipping follows
//	  0x51 snapBegin logID | start full resync: the log and the LSN its
//	                               prefix starts after
//	  0x52 snapFile  name | off | bytes   one chunk of a store file
//	  0x53 snapWAL   bytes         one chunk of the WAL prefix [start, prefixEnd)
//	  0x54 snapEnd   prefixEnd     snapshot complete; shipping resumes there
//	  0x55 ship      startLSN | bytes     raw sealed frames (byte-aligned,
//	                                      not frame-aligned: replicas buffer
//	                                      partial frames)
//	  0x86 error     server.MsgError, shared status codes
//
// A position is a (logID, LSN) pair as defined by the wal package: logID
// names one primary Open, the LSN a byte of its log's history, which a
// truncate does not move — a caught-up replica reads across one at the same
// LSN. A replica persists no position — its in-memory stream state dies with
// the process and a restarted replica always resyncs — but a live replica
// reconnecting across a dropped TCP session resumes in place while the
// primary's log still holds its position.
package repl

import (
	"fmt"

	"anywheredb/internal/server"
)

// Replication message types (disjoint from the client protocol's 0x0_/0x8_
// spaces so a cross-wired client fails fast with a protocol error).
const (
	msgHello    byte = 0x40
	msgAck      byte = 0x41
	msgReadAddr byte = 0x42

	msgResume    byte = 0x50
	msgSnapBegin byte = 0x51
	msgSnapFile  byte = 0x52
	msgSnapWAL   byte = 0x53
	msgSnapEnd   byte = 0x54
	msgShip      byte = 0x55
)

// replProtoVersion versions the replication handshake independently of the
// client protocol.
const replProtoVersion = 2

// helloMsg is the replica's opening message: who it is and where its
// in-memory stream position stands (all-zero = no position, snapshot me).
type helloMsg struct {
	Version uint64
	Token   string
	Name    string
	LogID   uint64
	LSN     uint64
}

func (m helloMsg) encode() []byte {
	b := server.AppendUvarint(nil, m.Version)
	b = server.AppendString(b, m.Token)
	b = server.AppendString(b, m.Name)
	b = server.AppendUvarint(b, m.LogID)
	return server.AppendUvarint(b, m.LSN)
}

func decodeHello(b []byte) (m helloMsg, err error) {
	if m.Version, b, err = server.ReadUvarint(b); err != nil {
		return m, err
	}
	if m.Token, b, err = server.ReadString(b); err != nil {
		return m, err
	}
	if m.Name, b, err = server.ReadString(b); err != nil {
		return m, err
	}
	err = readUvarints(b, &m.LogID, &m.LSN)
	return m, err
}

// readUvarints decodes one uvarint from the front of b into each of into.
func readUvarints(b []byte, into ...*uint64) (err error) {
	for _, p := range into {
		if *p, b, err = server.ReadUvarint(b); err != nil {
			return err
		}
	}
	return nil
}

// snapFileMsg carries one chunk of a store file during a full resync.
type snapFileMsg struct {
	Name  string
	Off   uint64
	Chunk []byte
}

func (m snapFileMsg) encode() []byte {
	b := server.AppendString(nil, m.Name)
	b = server.AppendUvarint(b, m.Off)
	return append(b, m.Chunk...)
}

func decodeSnapFile(b []byte) (m snapFileMsg, err error) {
	if m.Name, b, err = server.ReadString(b); err != nil {
		return m, err
	}
	m.Off, m.Chunk, err = server.ReadUvarint(b)
	return m, err
}

// shipMsg carries raw sealed WAL frames starting at StartLSN. Chunks are
// byte-aligned reads of the durable log, so a frame may straddle messages.
type shipMsg struct {
	StartLSN uint64
	Frames   []byte
}

func (m shipMsg) encode() []byte {
	b := server.AppendUvarint(nil, m.StartLSN)
	return append(b, m.Frames...)
}

func decodeShip(payload []byte) (m shipMsg, err error) {
	m.StartLSN, m.Frames, err = server.ReadUvarint(payload)
	return m, err
}

// snapBegin is two uvarints; ack and snapEnd are one.

func encodeSnapBegin(logID, start uint64) []byte {
	return server.AppendUvarint(server.AppendUvarint(nil, logID), start)
}

func decodeSnapBegin(payload []byte) (logID, start uint64, err error) {
	err = readUvarints(payload, &logID, &start)
	return logID, start, err
}

func encodeErr(code byte, msg string) []byte {
	b := []byte{code}
	return server.AppendString(b, msg)
}

// wireErr turns a received MsgError payload into an error.
func wireErr(payload []byte) error {
	code, msg, err := server.DecodeError(payload)
	if err != nil {
		return err
	}
	return fmt.Errorf("repl: primary error (code %d): %s", code, msg)
}
