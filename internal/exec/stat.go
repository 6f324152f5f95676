package exec

import "fmt"

// NodeStats accrues one operator's actual execution statistics: how often
// its Next was invoked, how many rows it returned, the inclusive virtual
// time spent in its subtree, and its memory high-water mark. These are the
// per-node actuals that EXPLAIN ANALYZE prints next to the optimizer's
// estimates, making Eq. 3 rank-preservation errors visible per query.
type NodeStats struct {
	Invocations  int64 // NextBatch calls (including the EOF call)
	Rows         int64 // rows returned
	Batches      int64 // non-empty batches returned
	VTimeMicros  int64 // inclusive virtual µs in Open+NextBatch+Close
	MemPeakPages int   // most pages the operator had charged to the governor task at once
}

// memSized is implemented by the operators that charge memory to the
// statement's governor task.
type memSized interface{ MemoryPeakPages() int }

// Stat wraps an operator and accrues NodeStats as the tree runs. All
// operator iteration is single-threaded, so the fields are plain integers —
// instrumentation costs two clock reads and a few adds per batch, not per
// row.
type Stat struct {
	Inner Operator
	S     NodeStats
}

// Open starts the counts afresh: a plan run again accrues each run's own.
func (s *Stat) Open(ctx *Ctx) error {
	s.S = NodeStats{}
	start := s.now(ctx)
	err := s.Inner.Open(ctx)
	s.S.VTimeMicros += s.now(ctx) - start
	return err
}

func (s *Stat) NextBatch(ctx *Ctx, out *Batch) error {
	start := s.now(ctx)
	err := s.Inner.NextBatch(ctx, out)
	s.S.VTimeMicros += s.now(ctx) - start
	s.S.Invocations++
	if n := out.Len(); n > 0 {
		s.S.Rows += int64(n)
		s.S.Batches++
	}
	return err
}

func (s *Stat) Close(ctx *Ctx) error {
	start := s.now(ctx)
	err := s.Inner.Close(ctx)
	s.S.VTimeMicros += s.now(ctx) - start
	if m, ok := s.Inner.(memSized); ok {
		s.S.MemPeakPages = m.MemoryPeakPages()
	}
	return err
}

func (s *Stat) now(ctx *Ctx) int64 {
	if ctx.Clk == nil {
		return 0
	}
	return int64(ctx.Clk.Now())
}

// Unwrap returns the operator inside a Stat wrapper (or op itself).
func Unwrap(op Operator) Operator {
	if s, ok := op.(*Stat); ok {
		return s.Inner
	}
	return op
}

// StatsOf returns the accrued stats if op is instrumented.
func StatsOf(op Operator) (*NodeStats, bool) {
	if s, ok := op.(*Stat); ok {
		return &s.S, true
	}
	return nil, false
}

// Instrument wraps op and every reachable child in Stat nodes, so the
// whole plan tree accrues per-node actuals. It returns the wrapped root.
// The RecursiveUnion closure child is rebuilt per iteration and cannot be
// wrapped from outside; only its Base is instrumented.
func Instrument(op Operator) Operator {
	if op == nil {
		return nil
	}
	if _, ok := op.(*Stat); ok {
		return op // already instrumented
	}
	switch x := op.(type) {
	case *Filter:
		x.Input = Instrument(x.Input)
	case *Project:
		x.Input = Instrument(x.Input)
	case *Limit:
		x.Input = Instrument(x.Input)
	case *Sort:
		x.Input = Instrument(x.Input)
	case *HashGroupBy:
		x.Input = Instrument(x.Input)
	case *HashDistinct:
		x.Input = Instrument(x.Input)
	case *HashJoin:
		x.Left = Instrument(x.Left)
		x.Right = Instrument(x.Right)
	case *NestedLoopJoin:
		x.Left = Instrument(x.Left)
		x.Right = Instrument(x.Right)
	case *IndexNLJoin:
		x.Left = Instrument(x.Left)
	case *UnionAll:
		for i := range x.Inputs {
			x.Inputs[i] = Instrument(x.Inputs[i])
		}
	case *RecursiveUnion:
		x.Base = Instrument(x.Base)
	}
	return &Stat{Inner: op}
}

// Children returns the direct children of op (after unwrapping Stat), in
// plan order. Leaves return nil.
func Children(op Operator) []Operator {
	switch x := Unwrap(op).(type) {
	case *Filter:
		return []Operator{x.Input}
	case *Project:
		return []Operator{x.Input}
	case *Limit:
		return []Operator{x.Input}
	case *Sort:
		return []Operator{x.Input}
	case *HashGroupBy:
		return []Operator{x.Input}
	case *HashDistinct:
		return []Operator{x.Input}
	case *HashJoin:
		return []Operator{x.Left, x.Right}
	case *NestedLoopJoin:
		return []Operator{x.Left, x.Right}
	case *IndexNLJoin:
		return []Operator{x.Left}
	case *UnionAll:
		return append([]Operator(nil), x.Inputs...)
	case *RecursiveUnion:
		return []Operator{x.Base}
	}
	return nil
}

// Describe returns a one-line label for op (after unwrapping Stat):
// operator name plus its table/index when it has one.
func Describe(op Operator) string {
	switch x := Unwrap(op).(type) {
	case *TableScan:
		if x.Table.SegmentCount() > 0 && !x.NoColumnar {
			if x.ZoneOp != "" && x.ZoneCol >= 0 && x.ZoneCol < len(x.Table.Columns) && x.ZoneConst != nil {
				k, _ := x.ZoneConst.Eval(nil)
				return fmt.Sprintf("TableScan(%s columnar zone:%s%s%s)",
					x.Table.Name, x.Table.Columns[x.ZoneCol].Name, x.ZoneOp, k)
			}
			return fmt.Sprintf("TableScan(%s columnar)", x.Table.Name)
		}
		return fmt.Sprintf("TableScan(%s)", x.Table.Name)
	case *IndexScan:
		return fmt.Sprintf("IndexScan(%s.%s)", x.Table.Name, x.Index.Name)
	case *Filter:
		return "Filter"
	case *Project:
		return "Project"
	case *Limit:
		return fmt.Sprintf("Limit(%d)", x.N)
	case *Sort:
		return "Sort"
	case *HashGroupBy:
		return "HashGroupBy"
	case *HashDistinct:
		return "HashDistinct"
	case *HashJoin:
		if x.mode == "inl" {
			return "HashJoin[->INL]"
		}
		return "HashJoin"
	case *NestedLoopJoin:
		return "NestedLoopJoin"
	case *IndexNLJoin:
		return fmt.Sprintf("IndexNLJoin(%s.%s)", x.Table.Name, x.Index.Name)
	case *UnionAll:
		return "UnionAll"
	case *RecursiveUnion:
		return "RecursiveUnion"
	case *Values:
		return "Values"
	case *Materialized:
		return "Materialized"
	}
	return fmt.Sprintf("%T", Unwrap(op))
}
