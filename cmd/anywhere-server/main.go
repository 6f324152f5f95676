// Command anywhere-server runs the engine in network server mode: it
// opens (or creates) a database and serves the length-prefixed
// prepared-statement protocol on a TCP address. Admission control is
// self-managing and on by default; SIGINT/SIGTERM triggers a graceful
// drain (stop accepting, finish in-flight statements under the drain
// deadline, checkpoint, exit).
//
// Usage:
//
//	anywhere-server [-dir path] [-addr host:port] [-token secret]
//	                [-drain 5s] [-repl-listen host:port] [-repl-sync]
//
// With -repl-listen the server also accepts log-shipping replicas
// (anywhere-replica) and automatically routes read-only statements to the
// least-loaded caught-up replica; -repl-sync makes commits wait for one
// replica acknowledgement.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"anywheredb/internal/core"
	"anywheredb/internal/repl"
	"anywheredb/internal/server"
)

func main() {
	dir := flag.String("dir", "", "database directory (empty = in-memory)")
	addr := flag.String("addr", "127.0.0.1:7654", "TCP listen address")
	token := flag.String("token", "", "auth token clients must present (empty = open)")
	drain := flag.Duration("drain", 5*time.Second, "graceful drain deadline on shutdown")
	replListen := flag.String("repl-listen", "", "replication listen address for replicas (empty = off)")
	replSync := flag.Bool("repl-sync", false, "commits wait for one replica acknowledgement")
	flag.Parse()

	db, err := core.Open(core.Options{Dir: *dir})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var prim *repl.Primary
	srvOpts := server.Options{
		Addr:         *addr,
		AuthToken:    *token,
		DrainTimeout: *drain,
	}
	if *replListen != "" {
		prim, err = repl.StartPrimary(db, repl.PrimaryOptions{
			Addr:       *replListen,
			AuthToken:  *token,
			SyncCommit: *replSync,
		})
		if err != nil {
			db.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		srvOpts.RouteRead = prim.RouteRead
	}
	srv, err := server.Start(db, srvOpts)
	if err != nil {
		if prim != nil {
			prim.Close()
		}
		db.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("anywhere-server listening on %s\n", srv.Addr())
	if prim != nil {
		fmt.Printf("anywhere-server shipping WAL on %s (sync %v)\n", prim.Addr(), *replSync)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "anywhere-server: draining...")

	ctx, cancel := context.WithTimeout(context.Background(), 2*(*drain))
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	if prim != nil {
		prim.Close()
	}
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "close:", err)
		os.Exit(1)
	}
}
