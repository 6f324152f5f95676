package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"anywheredb/internal/faultinject"
	"anywheredb/internal/store"
)

// fileLog opens a file-backed log in a temp dir and returns it with its
// path.
func fileLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l, path
}

func appendFlush(t *testing.T, l *Log, recs ...*Record) LSN {
	t.Helper()
	var last LSN
	for _, r := range recs {
		last = l.Append(r)
	}
	if err := l.FlushTo(last); err != nil {
		t.Fatal(err)
	}
	return last
}

func dataRec(txn uint64, slot uint32, payload []byte) *Record {
	return &Record{Type: RecInsert, Txn: txn, Table: 1,
		Page: store.MakePageID(0, 3), Slot: slot, After: payload}
}

// TestScanFromBoundedAllocation is the regression for the whole-log
// materialization bug: the old Scan allocated one []byte the size of the
// entire durable log (and held l.mu across the read), so a multi-GB log
// meant a multi-GB allocation. The chunked ScanFrom must keep no more than
// one read window live, so heap growth during the scan stays far below the
// log size.
func TestScanFromBoundedAllocation(t *testing.T) {
	l, _ := fileLog(t)
	defer l.Close()

	// ~8 MB of durable log in 1 KB records, flushed in batches.
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	const recs = 8 << 10
	for i := 0; i < recs; i++ {
		l.Append(dataRec(uint64(i), uint32(i%100), payload))
		if i%512 == 511 {
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	logSize := flushedLSN(l)
	if logSize < 8<<20 {
		t.Fatalf("test log too small: %d bytes", logSize)
	}

	// Shrink the read window so the bound is obvious: window (64 KB) plus
	// per-record decode garbage must stay far below the 8 MB log. The old
	// implementation kept the full log slice reachable during callbacks.
	old := scanChunkSize
	scanChunkSize = 64 << 10
	defer func() { scanChunkSize = old }()

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	var peak uint64
	n := 0
	err := l.ScanFrom(0, func(_ LSN, r *Record) error {
		n++
		if n%2048 == 0 {
			// The full-log slice would be live here; one window is not.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > base.HeapAlloc && ms.HeapAlloc-base.HeapAlloc > peak {
				peak = ms.HeapAlloc - base.HeapAlloc
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != recs {
		t.Fatalf("scanned %d records, want %d", n, recs)
	}
	if limit := logSize / 4; peak > limit {
		t.Fatalf("peak heap growth %d bytes during scan of %d-byte log (limit %d): scan is materializing the log",
			peak, logSize, limit)
	}
}

// TestScanFromResumesAtLSN verifies the shipper's use: scanning from a
// record's end-LSN yields exactly the records after it.
func TestScanFromResumesAtLSN(t *testing.T) {
	l, _ := fileLog(t)
	defer l.Close()
	var ends []LSN
	for i := 0; i < 10; i++ {
		ends = append(ends, l.Append(dataRec(uint64(i+1), uint32(i), []byte("payload"))))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, from := range ends {
		var got []uint64
		if err := l.ScanFrom(from, func(_ LSN, r *Record) error {
			got = append(got, r.Txn)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := 10 - (i + 1)
		if len(got) != want {
			t.Fatalf("ScanFrom(end of rec %d): %d records, want %d", i, len(got), want)
		}
		if want > 0 && got[0] != uint64(i+2) {
			t.Fatalf("ScanFrom(end of rec %d): first txn %d, want %d", i, got[0], i+2)
		}
	}
}

// corruptFrame flips a byte inside the payload of the idx-th frame of the
// log file at path, returning the frame's offset.
func corruptFrame(t *testing.T, path string, idx int) uint64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := uint64(0)
	for i := 0; ; i++ {
		if off+8 > uint64(len(data)) {
			t.Fatalf("log has fewer than %d frames", idx+1)
		}
		n := binary.LittleEndian.Uint32(data[off:])
		if i == idx {
			data[off+8] ^= 0xff // first payload byte
			break
		}
		off += 8 + uint64(n)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return off
}

// TestScanMidLogCorruptionIsLoud is the regression for the silent-stop bug:
// a damaged frame with intact durable records after it used to terminate
// the scan silently, dropping committed records at recovery. It must now
// fail with ErrCorrupt — both in a live Scan and at Open.
func TestScanMidLogCorruptionIsLoud(t *testing.T) {
	l, path := fileLog(t)
	appendFlush(t, l,
		dataRec(1, 0, []byte("first")),
		dataRec(2, 1, []byte("second")),
		dataRec(3, 2, []byte("third")))

	corruptFrame(t, path, 1) // middle frame: intact record follows

	err := l.Scan(func(LSN, *Record) error { return nil })
	if !errors.Is(err, faultinject.ErrCorrupt) {
		t.Fatalf("mid-log corruption: Scan returned %v, want ErrCorrupt", err)
	}
	l.CloseNoFlush()

	// Reopening the damaged log must also refuse: silently rewinding the
	// valid prefix would un-commit the acknowledged third record.
	if _, err := Open(path); !errors.Is(err, faultinject.ErrCorrupt) {
		t.Fatalf("mid-log corruption: Open returned %v, want ErrCorrupt", err)
	}
}

// TestScanTornTailIsSilent pins the crash-remnant semantics: damage
// confined to the final frame (torn or corrupt, nothing durable after it)
// still terminates scans silently and rewinds at Open, exactly as before.
func TestScanTornTailIsSilent(t *testing.T) {
	// Corrupt final frame.
	l, path := fileLog(t)
	appendFlush(t, l, dataRec(1, 0, []byte("first")), dataRec(2, 1, []byte("second")))
	corruptFrame(t, path, 1)
	n := 0
	if err := l.Scan(func(LSN, *Record) error { n++; return nil }); err != nil {
		t.Fatalf("corrupt tail: Scan returned %v, want silent stop", err)
	}
	if n != 1 {
		t.Fatalf("corrupt tail: scanned %d records, want 1", n)
	}
	l.CloseNoFlush()

	// Torn final frame: truncate the file mid-frame.
	l2, path2 := fileLog(t)
	appendFlush(t, l2, dataRec(1, 0, []byte("first")), dataRec(2, 1, []byte("second")))
	end := flushedLSN(l2)
	l2.CloseNoFlush()
	if err := os.Truncate(path2, int64(end)-3); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(path2)
	if err != nil {
		t.Fatalf("torn tail: Open returned %v, want rewind", err)
	}
	n = 0
	if err := l3.Scan(func(LSN, *Record) error { n++; return nil }); err != nil {
		t.Fatalf("torn tail: Scan returned %v, want silent stop", err)
	}
	if n != 1 {
		t.Fatalf("torn tail: scanned %d records, want 1", n)
	}
	l3.CloseNoFlush()
}

// TestReadChunkSpeaksLSNs: a shipping position is an LSN, which a truncate
// does not move. Below the log's start the bytes are gone (ErrTruncated); at
// the pre-truncate tail a reader reads on into the new file and gets exactly
// the records appended since; past the durable tail, or under another log's
// id, it is an error.
func TestReadChunkSpeaksLSNs(t *testing.T) {
	l, _ := fileLog(t)
	defer l.Close()

	appendFlush(t, l, dataRec(1, 0, []byte("before-one")), dataRec(2, 1, []byte("before-two")))
	logID, tail := l.Position()
	// A shipper that has consumed only part of the log.
	if chunk, err := l.ReadChunk(logID, 0, 16); err != nil || len(chunk) != 16 {
		t.Fatalf("pre-truncate ReadChunk: %d bytes, err %v", len(chunk), err)
	}
	l.mu.Lock()
	f, start := l.f, l.start
	l.mu.Unlock()
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	// A read that loses its file to the truncate was reading below the new
	// start: the bytes it wanted are gone.
	if err := l.readAt(f, start, make([]byte, 16), 16); !errors.Is(err, ErrTruncated) {
		t.Fatalf("read from the truncated file: %v, want ErrTruncated", err)
	}
	if start, _ := l.Bounds(); start != tail {
		t.Fatalf("start after truncate = %d, want the old tail %d", start, tail)
	}
	if _, err := l.ReadChunk(logID, 16, 1<<20); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadChunk below start returned %v, want ErrTruncated", err)
	}
	if chunk, err := l.ReadChunk(logID, tail, 1<<20); chunk != nil || err != nil {
		t.Fatalf("caught-up ReadChunk: %d bytes, err %v; want nil, nil", len(chunk), err)
	}

	end := appendFlush(t, l, dataRec(9, 0, []byte("after")))
	chunk, err := l.ReadChunk(logID, tail, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var txns []uint64
	n, err := DecodeFrames(chunk, func(_ int, r *Record) error { txns = append(txns, r.Txn); return nil })
	if err != nil || n != len(chunk) || tail+uint64(n) != end || len(txns) != 1 || txns[0] != 9 {
		t.Fatalf("ReadChunk at the old tail: txns %v in %d of %d bytes (err %v), want [9] ending at %d",
			txns, n, len(chunk), err, end)
	}

	if _, err := l.ReadChunk(logID, end+1, 1<<20); err == nil {
		t.Fatal("ReadChunk past the durable tail succeeded")
	}
	if _, err := l.ReadChunk(logID+2, end, 1<<20); err == nil {
		t.Fatal("ReadChunk under another log's id succeeded")
	}
}

// TestReadChunkRacesTruncate: a reader at the log's start while Truncate
// runs in a loop fails only for a position a truncate has since left below
// the start, and every byte it is handed is the byte logged at its LSN —
// each record carries its own end LSN, so a read from the wrong file or
// offset shows.
func TestReadChunkRacesTruncate(t *testing.T) {
	l, _ := fileLog(t)
	defer l.Close()
	logID, _ := l.Position()

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 400; i++ {
			for k := 0; k < 4; k++ {
				r := dataRec(uint64(i+1), uint32(k), make([]byte, 8))
				binary.LittleEndian.PutUint64(r.After, l.PendingLSN()+FrameLen(r))
				l.Append(r)
			}
			if err := l.Flush(); err != nil {
				done <- err
				return
			}
			if i%4 == 3 {
				if err := l.Truncate(); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()

	reads := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if reads == 0 {
				t.Fatal("the reader never read a byte")
			}
			return
		default:
		}
		start, _ := l.Bounds()
		chunk, err := l.ReadChunk(logID, start, 1<<20)
		if err != nil {
			if now, _ := l.Bounds(); !errors.Is(err, ErrTruncated) || now <= start {
				t.Fatalf("ReadChunk at start %d (now %d): %v", start, now, err)
			}
			continue
		}
		end := start
		if _, err := DecodeFrames(chunk, func(n int, r *Record) error {
			end += uint64(n)
			if got := binary.LittleEndian.Uint64(r.After); got != end {
				t.Fatalf("record ending at LSN %d says it ends at %d", end, got)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(chunk) > 0 {
			reads++
		}
	}
}

// TestTruncateCarriesPendingBuffer verifies that records appended after the
// checkpoint record but not yet flushed survive a truncate: they move behind
// the new log's header at the LSNs they were handed out with, and a
// committer's FlushTo still lands them.
func TestTruncateCarriesPendingBuffer(t *testing.T) {
	l, _ := fileLog(t)
	defer l.Close()

	appendFlush(t, l, &Record{Type: RecCheckpoint})
	lsn := l.Append(dataRec(7, 0, []byte("racing-commit")))
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	// The racing committer's FlushTo must make the record durable in the
	// new file.
	if err := l.FlushTo(lsn); err != nil {
		t.Fatal(err)
	}
	var got []*Record
	if err := l.Scan(func(_ LSN, r *Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Txn != 7 || string(got[0].After) != "racing-commit" {
		t.Fatalf("post-truncate log = %+v, want the carried-over record", got)
	}
}

// TestIngestRawRoundTrip verifies the replica ingest path: raw chunks read
// from one log from its start LSN, ingested into a log WriteLog began at that
// LSN, reproduce the same records at the same LSNs and are durable (reopen
// sees them).
func TestIngestRawRoundTrip(t *testing.T) {
	src, _ := fileLog(t)
	appendFlush(t, src, dataRec(9, 0, []byte("truncated-away")))
	if err := src.Truncate(); err != nil {
		t.Fatal(err)
	}
	appendFlush(t, src,
		dataRec(1, 0, []byte("alpha")),
		dataRec(2, 1, []byte("beta")),
		dataRec(3, 2, []byte("gamma")))
	logID, tail := src.Position()
	start, _ := src.Bounds()
	var want []LSN
	if err := src.Scan(func(_ LSN, r *Record) error { want = append(want, r.LSN); return nil }); err != nil {
		t.Fatal(err)
	}

	dstPath := filepath.Join(t.TempDir(), "replica.log")
	if err := WriteLog(dstPath, start, nil); err != nil {
		t.Fatal(err)
	}
	dst, err := Open(dstPath)
	if err != nil {
		t.Fatal(err)
	}
	for from := start; from < tail; {
		chunk, err := src.ReadChunk(logID, from, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.IngestRaw(chunk, 0); err != nil {
			t.Fatal(err)
		}
		from += uint64(len(chunk))
	}
	src.Close()
	dst.Close()

	re, err := Open(dstPath)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var txns []uint64
	var got []LSN
	if err := re.Scan(func(_ LSN, r *Record) error {
		txns, got = append(txns, r.Txn), append(got, r.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(txns) != 3 || txns[0] != 1 || txns[2] != 3 {
		t.Fatalf("replica log after ingest: txns %v, want [1 2 3]", txns)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replica log LSNs %v, want the source's %v", got, want)
	}
}

// TestTailChangedWakesOnFlushAndTruncate covers the shipping loop's wakeup
// channel.
func TestTailChangedWakesOnFlushAndTruncate(t *testing.T) {
	l, _ := fileLog(t)
	defer l.Close()

	ch := l.TailChanged()
	appendFlush(t, l, dataRec(1, 0, []byte("x")))
	select {
	case <-ch:
	default:
		t.Fatal("TailChanged not signalled by a flush")
	}

	ch = l.TailChanged()
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("TailChanged not signalled by a truncate")
	}
}
