package exec

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"anywheredb/internal/buffer"
	"anywheredb/internal/faultinject"
	"anywheredb/internal/store"
	"anywheredb/internal/val"
	"anywheredb/internal/vclock"
)

// indexReadHook fires on every read of a temp-file page once armed. The
// tests below keep the probed index, and nothing else that is read back,
// in the temp file, so it fires when a probe reads an index page.
type indexReadHook struct {
	armed atomic.Bool
	fire  func() error
}

func (h *indexReadHook) Fault(op faultinject.Op, arg uint64, _ []byte) ([]byte, error) {
	if op == faultinject.OpRead && store.PageID(arg).File() == store.TempFile && h.armed.Load() {
		return nil, h.fire()
	}
	return nil, nil
}

func (h *indexReadHook) Crashpoint(string) error { return nil }

// TestIndexProbeCancelAndFault: the three operators that read through an
// index share one probe, so all three stop the same way when, part-way
// through the duplicates of one key, the statement is cancelled or the next
// leaf cannot be read: with that error, and with no page left pinned.
func TestIndexProbeCancelAndFault(t *testing.T) {
	hook := &indexReadHook{}
	st, err := store.Open(store.Options{Injector: hook})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	// A pool far smaller than the table: fetching rows evicts index pages.
	ctx := &Ctx{Pool: buffer.New(st, 8, 16, 32), St: st, Clk: vclock.New(), ForceBatchSize: 16}

	// 1000 rows per grp value: one key's entries span several leaves.
	inner := mkTable(t, ctx, "inner", 4000, 4)
	ix, err := inner.AddIndexIn(store.TempFile, 950, "by_grp", []int{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	key := val.EncodeKey([]val.Value{val.NewInt(1)})
	users := []struct {
		name string
		op   func() Operator
	}{
		{"IndexScan", func() Operator {
			return &IndexScan{Table: inner, Index: ix, Lo: key, Hi: key, HiInc: true}
		}},
		{"IndexNLJoin", func() Operator {
			return &IndexNLJoin{Left: rowsOp(intRow(1)), LeftKeys: []Expr{Col{0}}, Table: inner, Index: ix}
		}},
		{"HashJoin->INL", func() Operator {
			return &HashJoin{
				Left: rowsOp(intRow(1)), Right: &TableScan{Table: inner},
				LeftKeys: []Expr{Col{0}}, RightKeys: []Expr{Col{1}},
				INLMaxBuildRows: 10, Alt: &IndexAlt{Table: inner, Index: ix},
			}
		}},
	}
	injected := faultinject.Permanent(errors.New("injected index leaf read"))

	for _, u := range users {
		for _, mode := range []string{"cancel", "fault"} {
			t.Run(u.name+"/"+mode, func(t *testing.T) {
				cctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				ctx.Context = cctx
				want := injected
				hook.fire = func() error { return injected }
				if mode == "cancel" {
					want = context.Canceled
					hook.fire = func() error { cancel(); return nil }
				}
				// Push the index out of the pool, then bring back only the
				// path to the key's first leaf: the hook fires when the
				// probe steps to the next one.
				drain(t, ctx, &TableScan{Table: inner})
				if _, _, err := ix.Tree.Search(key); err != nil {
					t.Fatal(err)
				}
				pinned := ctx.Pool.PinnedCount()
				hook.armed.Store(true)
				defer hook.armed.Store(false)

				// Driven by hand: Drain polls for cancellation itself.
				op := u.op()
				err := op.Open(ctx)
				rows := 0
				for b := (Batch{}); err == nil; rows += b.Len() {
					if err = op.NextBatch(ctx, &b); b.Len() == 0 {
						break
					}
				}
				op.Close(ctx)
				if !errors.Is(err, want) {
					t.Errorf("%d rows and error %v, want error %v", rows, err, want)
				}
				if n := ctx.Pool.PinnedCount(); n != pinned {
					t.Errorf("%d pages pinned after Close, %d before Open", n, pinned)
				}
			})
		}
	}
}
