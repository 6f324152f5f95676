package server

import (
	"net"

	"anywheredb/internal/core"
)

// ServeOn serves db on a listener the test supplies, so a test can wrap
// the connections the server accepts.
func ServeOn(db *core.DB, opts Options, ln net.Listener) *Server {
	opts.fill()
	return serve(db, opts, ln)
}

// SameValues compares two value lists, a DOUBLE by its bit pattern.
var SameValues = sameValues
