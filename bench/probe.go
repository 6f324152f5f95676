package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"anywheredb/internal/server"
	"anywheredb/internal/sqlparse"
	"anywheredb/internal/val"
	"anywheredb/internal/wal"
)

// Layer probes time direct calls into one layer's public functions, on the
// workload's own schema, statements and data, so that a probe number can be
// set beside the phase the trace attributes to the same layer. Each probe
// makes up to cfg.probeCalls calls within cfg.probeBudget and reports the
// median call in microseconds.

// probe times fn repeatedly; fn receives the call's index.
func (r *run) probe(fn func(i int) error) (float64, error) {
	var us []float64
	deadline := time.Now().Add(r.cfg.probeBudget)
	for i := 0; i < r.cfg.probeCalls && (i == 0 || time.Now().Before(deadline)); i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// runProbes fills r.probes. It runs after the measured rounds, while the
// server is still up; the embedded probe's ops are verified and counted
// like any other, and its writes are covered by the durability check.
func (r *run) runProbes() error {
	sample := r.spec.sample(r)
	var err error
	set := func(name string, fn func(i int) error) {
		if err == nil {
			r.probes[name], err = r.probe(fn)
		}
	}

	// core.embedded_op_us: the same op stream through core.Conn, no server.
	emb, cerr := r.db.Connect()
	if cerr != nil {
		return cerr
	}
	r.emb = emb
	set("core.embedded_op_us", func(int) error {
		if _, ok := r.doOp(); !ok {
			return fmt.Errorf("embedded op failed: %w", r.firstErr)
		}
		return nil
	})
	r.emb = nil
	if cerr := emb.Close(); err == nil {
		err = cerr
	}

	// server.codec_probe_us: encode the op's requests and decode the row
	// batches the server actually sent for them.
	batches, cerr := r.captureRowBatches(sample)
	if err == nil {
		err = cerr
	}
	set("server.codec_probe_us", func(int) error {
		for _, c := range sample {
			id := uint64(0)
			sql := c.sql
			if c.prepared {
				id, sql = 1, ""
			}
			if len(server.EncodeExec(id, sql, 0, c.params)) == 0 {
				return fmt.Errorf("codec probe: empty exec frame")
			}
		}
		for _, b := range batches {
			if _, err := server.DecodeRowBatch(b); err != nil {
				return err
			}
		}
		return nil
	})

	// sqlparse.parse_probe_us: parse the op's statement texts.
	set("sqlparse.parse_probe_us", func(int) error {
		for _, c := range sample {
			if _, err := sqlparse.Parse(c.sql); err != nil {
				return err
			}
		}
		return nil
	})

	// btree.search_probe_us: Tree.Search on the workload's own index.
	r.probes["btree.search_probe_us"] = 0
	if tbl, ok := r.db.Table(r.spec.table); ok && len(tbl.Indexes) > 0 {
		tree := tbl.Indexes[0].Tree
		set("btree.search_probe_us", func(i int) error {
			k := int64(i*7919) % int64(r.spec.rows)
			_, found, err := tree.Search(val.EncodeKey([]val.Value{val.NewInt(k)}))
			if err == nil && !found {
				err = fmt.Errorf("btree probe: key %d not found", k)
			}
			return err
		})
	}

	// wal.append_flush_probe_us: one 128-byte record appended and synced in
	// the database's own directory — this host's sync floor.
	log, lerr := wal.Open(filepath.Join(r.dir, "probe.log"))
	if lerr != nil {
		return lerr
	}
	payload := make([]byte, 128)
	set("wal.append_flush_probe_us", func(int) error {
		return log.FlushTo(log.Append(&wal.Record{Type: wal.RecInsert, After: payload}))
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	// The probe's log must not count as database space.
	if cerr := os.Remove(filepath.Join(r.dir, "probe.log")); err == nil {
		err = cerr
	}
	return err
}

// captureRowBatches replays the sample's queries on a raw protocol
// connection and returns the row-batch payloads the server sent.
func (r *run) captureRowBatches(sample []call) ([][]byte, error) {
	nc, err := net.DialTimeout("tcp", r.srv.Addr().String(), 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return nil, err
	}
	if err := server.WriteFrame(nc, server.MsgHello, server.EncodeHello("", "bench-codec", 0)); err != nil {
		return nil, err
	}
	if typ, _, err := server.ReadFrame(nc); err != nil || typ != server.MsgHelloOK {
		return nil, fmt.Errorf("codec capture: handshake reply 0x%02x: %v", typ, err)
	}
	var out [][]byte
	for _, c := range sample {
		if !isQuery(c.sql) {
			continue
		}
		if err := server.WriteFrame(nc, server.MsgExec, server.EncodeExec(0, c.sql, 0, c.params)); err != nil {
			return nil, err
		}
		for done := false; !done; {
			typ, payload, err := server.ReadFrame(nc)
			if err != nil {
				return nil, err
			}
			switch typ {
			case server.MsgRowBatch:
				out = append(out, payload)
			case server.MsgDone:
				done = true
			case server.MsgError:
				_, msg, _ := server.DecodeError(payload)
				return nil, fmt.Errorf("codec capture: %s", msg)
			}
		}
	}
	return out, nil
}

// planInfo is what EXPLAIN says about the workload's statement shapes,
// taken once after warm-up with the binding style the workload uses.
type planInfo struct {
	shapes       int     // statements with an access path (SELECT, UPDATE)
	indexPlans   int     // of those, how many reach their table by IndexScan
	rowsExamined float64 // EXPLAIN ANALYZE: scan actual rows ÷ rows returned, mean over SELECT shapes
	segments     int     // columnar segments of the workload's table
	lines        []string
}

func (p planInfo) indexShare() float64 { return ratio(float64(p.indexPlans), float64(p.shapes)) }

// explainPlans runs EXPLAIN on every SELECT and UPDATE of the sample op,
// and EXPLAIN ANALYZE on the SELECTs (analysing an UPDATE would execute it).
func (r *run) explainPlans() error {
	if tbl, ok := r.db.Table(r.spec.table); ok {
		r.plan.segments = tbl.SegmentCount()
	}
	var examined []float64
	for _, c := range r.spec.sample(r) {
		if !isQuery(c.sql) && !strings.HasPrefix(c.sql, "UPDATE") {
			continue
		}
		rows, err := r.cli.Query("EXPLAIN "+c.sql, c.params...)
		if err != nil {
			return err
		}
		r.plan.shapes++
		for _, row := range rows.Data {
			label := strings.TrimSpace(row[0].S)
			r.plan.lines = append(r.plan.lines, fmt.Sprintf("%s: %s est_rows=%v", c.sql, label, row[1]))
			if strings.HasPrefix(label, "IndexScan") {
				r.plan.indexPlans++
			}
		}
		if !isQuery(c.sql) {
			continue
		}
		rows, err = r.cli.Query("EXPLAIN ANALYZE "+c.sql, c.params...)
		if err != nil {
			return err
		}
		var scanned, returned int64
		for i, row := range rows.Data {
			if i == 0 {
				returned = row[2].AsInt()
			}
			if strings.Contains(row[0].S, "Scan") {
				scanned += row[2].AsInt()
			}
		}
		examined = append(examined, ratio(float64(scanned), float64(returned)))
	}
	r.plan.rowsExamined = mean(examined)
	return nil
}
