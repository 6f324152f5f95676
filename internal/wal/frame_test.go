package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"anywheredb/internal/faultinject"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
)

// encode is the payload encoder Append used before it wrote frames in
// place (repeated appends into a fresh slice, then two more copies), with
// an update's unchanged front and back lengths: kept as the oracle the
// in-place encoder must match byte for byte.
func encode(r *Record) []byte {
	var b []byte
	typ := byte(r.Type)
	if r.Undo {
		typ |= undoBit
	}
	b = append(b, typ)
	b = binary.AppendUvarint(b, r.Txn)
	b = binary.AppendUvarint(b, r.Table)
	b = binary.AppendUvarint(b, uint64(r.Page))
	b = binary.AppendUvarint(b, uint64(r.Slot))
	if r.Type == RecUpdate {
		b = binary.AppendUvarint(b, uint64(r.Front))
		b = binary.AppendUvarint(b, uint64(r.Back))
	}
	b = binary.AppendUvarint(b, uint64(len(r.Before)))
	b = append(b, r.Before...)
	b = binary.AppendUvarint(b, uint64(len(r.After)))
	b = append(b, r.After...)
	return b
}

// oracleFrame frames a record the old way.
func oracleFrame(r *Record) []byte {
	payload := encode(r)
	var frame []byte
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// randomRecord draws a record of any type with field values spread over
// every uvarint width, and — one time in four — a full 4 KB page image.
func randomRecord(rng *rand.Rand) *Record {
	wide := func() uint64 { return rng.Uint64() >> uint(rng.Intn(64)) }
	bytesOf := func(max int) []byte {
		if rng.Intn(3) == 0 {
			return nil
		}
		b := make([]byte, rng.Intn(max+1))
		rng.Read(b)
		return b
	}
	r := &Record{
		Type:  RecCommit + RecType(rng.Intn(int(RecColSegDrop-RecCommit)+1)),
		Undo:  rng.Intn(8) == 0,
		Txn:   wide(),
		Table: wide(),
		Page:  store.PageID(wide()),
		Slot:  uint32(wide()),
	}
	if rng.Intn(4) == 0 {
		r.Type, r.Undo, r.After = RecPageImage, false, make([]byte, page.Size)
		rng.Read(r.After)
		return r
	}
	if r.Type == RecUpdate {
		r.Front, r.Back = uint32(wide()), uint32(wide())
	}
	r.Before, r.After = bytesOf(300), bytesOf(300)
	return r
}

// TestFrameRoundTrip: every record type decodes from its frame to the
// record it was encoded from, an update's front and back lengths included.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	seen := map[RecType]bool{}
	for i := 0; i < 2000; i++ {
		r := randomRecord(rng)
		seen[r.Type] = true
		frame := appendFrame(nil, r)
		if uint64(len(frame)) != FrameLen(r) {
			t.Fatalf("%v: frame is %d bytes, FrameLen says %d", r.Type, len(frame), FrameLen(r))
		}
		got, err := decode(frame[8:])
		if err != nil {
			t.Fatalf("%v: %v", r.Type, err)
		}
		if got.Type != r.Type || got.Undo != r.Undo || got.Txn != r.Txn || got.Table != r.Table ||
			got.Page != r.Page || got.Slot != r.Slot || got.Front != r.Front || got.Back != r.Back ||
			!bytes.Equal(got.Before, r.Before) || !bytes.Equal(got.After, r.After) {
			t.Fatalf("decode(appendFrame(r)) = %+v, want %+v", got, r)
		}
	}
	for typ := RecCommit; typ <= RecColSegDrop; typ++ {
		if !seen[typ] {
			t.Errorf("no %v record was drawn", typ)
		}
	}
}

// flakyFlush fails every flush whose ordinal the test marked, transiently.
type flakyFlush struct {
	fail map[int]bool
	n    int
}

func (f *flakyFlush) Fault(op faultinject.Op, _ uint64, _ []byte) ([]byte, error) {
	if op != faultinject.OpWALFlush {
		return nil, nil
	}
	f.n++
	if f.fail[f.n] {
		return nil, faultinject.Transient(errors.New("flush refused"))
	}
	return nil, nil
}

func (f *flakyFlush) Crashpoint(string) error { return nil }

// TestAppendFrameMatchesOldEncoder is the byte-identity property of the
// in-place encoder: for random record streams — 4 KB images among them,
// appended through Append and LogImage, flushed at random points into
// recycled buffers, some of those flushes failing so their bytes go back
// to the pending buffer — every end-LSN is the old encoder's running frame
// total and the durable log is the old encoder's frames, byte for byte.
func TestAppendFrameMatchesOldEncoder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "anywhere.log")
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		os.Remove(path)
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer l.CloseNoFlush()
		inj := &flakyFlush{fail: map[int]bool{}}
		l.SetInjector(inj, faultinject.RetryPolicy{}, nil)
		var want []byte
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			r := randomRecord(rng)
			want = append(want, oracleFrame(r)...)
			var lsn LSN
			if r.Type == RecPageImage && r.Txn%2 == 0 {
				lsn = l.LogImage(r.Page, r.After)
				// LogImage's record carries no transaction and no slot.
				want = want[:len(want)-len(oracleFrame(r))]
				want = append(want, oracleFrame(&Record{Type: RecPageImage, Page: r.Page, After: r.After})...)
			} else {
				lsn = l.Append(r)
			}
			if lsn != LSN(len(want)) {
				t.Logf("seed %d: record %d end-LSN %d, want %d", seed, i, lsn, len(want))
				return false
			}
			if rng.Intn(4) == 0 {
				inj.fail[inj.n+1] = rng.Intn(3) == 0
				_ = l.Flush() // a refused flush keeps its bytes pending
			}
		}
		inj.fail = map[int]bool{}
		if err := l.Flush(); err != nil {
			t.Logf("seed %d: final flush: %v", seed, err)
			return false
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Logf("seed %d: log bytes differ from the old encoder's (%d vs %d bytes, %v)", seed, len(got), len(want), err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendCopiesOnce: appending a 4 KB image into a reused buffer
// allocates nothing — the frame is encoded straight into the log buffer,
// and the buffer a flush emptied is the one the next appends fill.
func TestAppendCopiesOnce(t *testing.T) {
	l, _ := Open("")
	img := make([]byte, page.Size)
	id := store.MakePageID(store.MainFile, 7)
	for i := 0; i < 2; i++ { // grow both buffers past what the run appends
		for j := 0; j < 110; j++ {
			l.LogImage(id, img)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { l.LogImage(id, img) }); n != 0 {
		t.Fatalf("LogImage of a 4 KB image allocates %.1f objects, want 0", n)
	}
}
