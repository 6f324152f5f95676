package opt

// IndexSpec is a virtual-index specification the optimizer would like to
// have (§5): a table and an ordered list of column ordinals. The
// specification starts generalized — any column set useful to the query —
// and is tightened to a physical order here: equality/equijoin columns
// lead, in predicate order.
type IndexSpec struct {
	TableName string
	Cols      []int
}

// DesiredIndexes reports the index specifications that would help a bound
// query: columns carrying sargable equality predicates and equijoin
// columns, on tables that lack an index led by that column. This is the
// hook the Index Consultant uses to propose virtual indexes without
// enumerating every column combination.
func DesiredIndexes(q *Query) []IndexSpec {
	var out []IndexSpec
	seen := map[string]bool{}
	add := func(qi, col int) {
		qt := q.Quants[qi]
		if qt.Table == nil {
			return
		}
		// Already supported by a real index?
		for _, ix := range qt.Table.IndexList() {
			if len(ix.Cols) > 0 && ix.Cols[0] == col {
				return
			}
		}
		key := qt.Table.Name + ":" + string(rune('0'+col))
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, IndexSpec{TableName: qt.Table.Name, Cols: []int{col}})
	}
	for _, cj := range q.Conj {
		switch cj.Class {
		case LocalPred:
			col, _, op, ok := colOpLitConj(q, cj)
			if ok && op == "=" {
				add(col.Q, col.C)
			}
		case EquiJoinPred:
			add(cj.LQ, cj.LC)
			add(cj.RQ, cj.RC)
		}
	}
	return out
}
