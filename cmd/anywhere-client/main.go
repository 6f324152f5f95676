// Command anywhere-client is a line-oriented SQL client for
// anywhere-server: statements read from -e or stdin are sent over the
// wire protocol and results printed. Retryable refusals (admission shed,
// server draining) are retried with bounded exponential backoff before
// giving up — the server sheds load precisely so that clients come back
// a moment later, so a client that treats a shed as a hard failure
// defeats the admission controller. Ctrl-C while a statement runs cancels
// that statement and the prompt goes on; Ctrl-C at the prompt exits.
//
// Usage:
//
//	anywhere-client [-addr host:port] [-token secret] [-deadline 0]
//	                [-retries 5] [-e "select ..."]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"anywheredb/internal/server/client"
	"anywheredb/internal/val"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7654", "server address")
	token := flag.String("token", "", "auth token")
	deadline := flag.Duration("deadline", 0, "per-statement deadline (0 = server default)")
	retries := flag.Int("retries", 5, "retry attempts for retryable refusals (admission shed, drain)")
	exprs := flag.String("e", "", "statement(s) to run, ';'-separated; empty = read stdin")
	flag.Parse()

	c, err := client.Dial(*addr, client.Options{
		Token:             *token,
		Name:              "anywhere-client",
		StatementDeadline: *deadline,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer c.Close()

	run := func(sql string) bool {
		sql = strings.TrimSpace(sql)
		if sql == "" {
			return true
		}
		start := time.Now()
		stop := cancelOnInterrupt(c)
		rows, err := queryWithRetry(c.Query, sql, *retries, retryBaseBackoff, func(attempt int, wait time.Duration, err error) {
			fmt.Fprintf(os.Stderr, "retryable (attempt %d/%d, retrying in %s): %v\n", attempt, *retries, wait, err)
		})
		stop()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		if len(rows.Cols) > 0 {
			fmt.Println(strings.Join(rows.Cols, " | "))
			for _, r := range rows.Data {
				cells := make([]string, len(r))
				for i, v := range r {
					cells[i] = formatVal(v)
				}
				fmt.Println(strings.Join(cells, " | "))
			}
		}
		fmt.Printf("(%d rows, %s)\n", len(rows.Data), time.Since(start).Round(time.Microsecond))
		return true
	}

	if *exprs != "" {
		ok := true
		for _, sql := range strings.Split(*exprs, ";") {
			ok = run(sql) && ok
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	for {
		if buf.Len() == 0 {
			fmt.Print("sql> ")
		} else {
			fmt.Print("...> ")
		}
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == `\q` || line == "quit" || line == "exit" {
			break
		}
		buf.WriteString(line)
		buf.WriteString(" ")
		if strings.HasSuffix(line, ";") {
			run(strings.TrimSuffix(strings.TrimSpace(buf.String()), ";"))
			buf.Reset()
		}
	}
}

// cancelOnInterrupt makes SIGINT cancel the statement c runs, until stop
// is called; outside that window SIGINT ends the program as it always has.
func cancelOnInterrupt(c *client.Client) (stop func()) {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	go func() {
		for range sigs {
			if err := c.Cancel(); err != nil {
				fmt.Fprintln(os.Stderr, "cancel:", err)
			}
		}
	}()
	return func() {
		signal.Stop(sigs)
		close(sigs)
	}
}

const (
	retryBaseBackoff = 100 * time.Millisecond
	retryMaxBackoff  = 2 * time.Second
)

// queryWithRetry runs a statement, retrying client.ErrRetryable refusals
// with doubling backoff up to `retries` extra attempts. Any other error —
// and a refusal that outlives the budget — is returned as-is.
func queryWithRetry(query func(string, ...val.Value) (*client.Rows, error), sql string,
	retries int, backoff time.Duration, note func(attempt int, wait time.Duration, err error)) (*client.Rows, error) {
	for attempt := 0; ; attempt++ {
		rows, err := query(sql)
		if err == nil || !errors.Is(err, client.ErrRetryable) || attempt >= retries {
			return rows, err
		}
		if note != nil {
			note(attempt+1, backoff, err)
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > retryMaxBackoff {
			backoff = retryMaxBackoff
		}
	}
}

func formatVal(v val.Value) string {
	switch v.Kind {
	case val.KNull:
		return "NULL"
	case val.KInt:
		return fmt.Sprintf("%d", v.I)
	case val.KDouble:
		return fmt.Sprintf("%g", v.F)
	default:
		return v.S
	}
}
