package anywheredb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedExports is the ratchet's allow-list: the exported top-level
// functions and methods of this module that no non-test file in the tree
// names outside their own declaration. Each is here for the reason given:
// a method the language calls through an interface, part of the library's
// public surface, or a function only tests and tools call today. The list
// may shrink but never grow: a new export must be named by the program, and
// an entry whose function is deleted or gains a caller must be taken off.
var unusedExports = map[string]string{
	"anywheredb.Double":                                        "public API",
	"anywheredb/internal/buffer.Pool.FlushPage":                "tests only",
	"anywheredb/internal/cachegov.Governor.Interval":           "tests only",
	"anywheredb/internal/catalog.Catalog.Option":               "tests only",
	"anywheredb/internal/catalog.Catalog.SetOption":            "tests only",
	"anywheredb/internal/core.DB.ReorgOnce":                    "tests only",
	"anywheredb/internal/exec.RecursiveUnion.Iterations":       "tests only",
	"anywheredb/internal/exec.RecursiveUnion.SwitchedStrategy": "tests only",
	"anywheredb/internal/exec.Sort.Spilled":                    "tests only",
	"anywheredb/internal/exec.hitsByKey.Less":                  "interface method: sort.Interface",
	"anywheredb/internal/exec.runMerge.Less":                   "interface method: sort.Interface (container/heap)",
	"anywheredb/internal/experiments.CommitTorture":            "tests only",
	"anywheredb/internal/flightrec.Collector.SpansRecorded":    "tests only",
	"anywheredb/internal/flightrec.WaitEventNames":             "tests only",
	"anywheredb/internal/heap.Heap.PageIDs":                    "tests only",
	"anywheredb/internal/lock.Manager.Held":                    "tests only",
	"anywheredb/internal/mem.Governor.SetMPL":                  "tests only",
	"anywheredb/internal/osenv.Machine.SetPoolFunc":            "tests only",
	"anywheredb/internal/page.Buf.SetType":                     "tests only",
	"anywheredb/internal/profile.AnalyzeTelemetry":             "tests only",
	"anywheredb/internal/repl.Replica.Resyncs":                 "tests only",
	"anywheredb/internal/server/client.Client.Cancel":          "tests only",
	"anywheredb/internal/server/client.Client.ConnID":          "tests only",
	"anywheredb/internal/server/client.Client.ExecDeadline":    "tests only",
	"anywheredb/internal/server/client.Client.SendExecRaw":     "tests only",
	"anywheredb/internal/server/client.Client.SendRaw":         "tests only",
	"anywheredb/internal/stats.Histogram.Compressed":           "tests only",
	"anywheredb/internal/stats.NewProcStats":                   "tests only",
	"anywheredb/internal/stats.ProcStats.Specials":             "tests only",
	"anywheredb/internal/stats.StringStats.ObserveValue":       "tests only",
	"anywheredb/internal/store.Store.AddDBSpace":               "tests only",
	"anywheredb/internal/store.Store.ResetTemp":                "tests only",
	"anywheredb/internal/txn.Manager.Active":                   "tests only",
	"anywheredb/internal/val.Value.SQLString":                  "tests only",
	"anywheredb/internal/vclock.Clock.AdvanceTo":               "tests only",
	"anywheredb/internal/wal.Log.FlushedLSN":                   "tests only",
	"anywheredb/internal/workload.DoubleUniform":               "tests only",
	"anywheredb/internal/workload.IntZipf":                     "tests only",
	"anywheredb/internal/workload.SpikeTrace":                  "tests only",
	"anywheredb/internal/workload.StrTagged":                   "tests only",
}

// TestNoNewUnusedExports is a ratchet over dead exported code, using only
// go/parser: it fails when an exported top-level function or method of
// this module is named in no non-test file outside its own declaration and
// is not on unusedExports, and when an entry there no longer describes such
// a function. A name counts as used wherever the identifier appears, so a
// caller of another function of the same name hides a dead one: the check
// under-reports, never over-reports.
func TestNoNewUnusedExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key, name  string
		start, end token.Pos
	}
	var decls []decl
	uses := map[string][]token.Pos{}
	declares := map[token.Pos]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// A function's name declares it, and names nothing: a method
		// declared on two types does not make either one used.
		for _, dcl := range f.Decls {
			if fd, ok := dcl.(*ast.FuncDecl); ok {
				declares[fd.Name.Pos()] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declares[id.Pos()] {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
		// Declarations are this module's; a nested module (the benchmark
		// driver) only uses them.
		pkg, ok := modulePackage(filepath.Dir(p))
		if !ok {
			return nil
		}
		for _, dcl := range f.Decls {
			fd, ok := dcl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				key = pkg + "." + receiverName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name.Name, fd.Pos(), fd.End()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	unused := map[string]bool{}
	for _, d := range decls {
		named := false
		for _, pos := range uses[d.name] {
			if pos < d.start || pos >= d.end {
				named = true
				break
			}
		}
		if !named {
			unused[d.key] = true
		}
	}
	var added, stale []string
	for key := range unused {
		if _, ok := unusedExports[key]; !ok {
			added = append(added, key)
		}
	}
	for key := range unusedExports {
		if !unused[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(added)
	sort.Strings(stale)
	for _, key := range added {
		t.Errorf("%s is exported but named by no non-test file: call it, unexport it or delete it", key)
	}
	for _, key := range stale {
		t.Errorf("%s is on unusedExports but is no longer an unused export: take it off the list", key)
	}
	t.Logf("%d exported functions and methods, %d of them named by no non-test file", len(decls), len(unused))
}

// modulePackage maps a directory of this module to its import path; a
// directory inside a nested module is not this module's.
func modulePackage(dir string) (string, bool) {
	for d := dir; d != "."; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return "", false
		}
	}
	if dir == "." {
		return "anywheredb", true
	}
	return path.Join("anywheredb", filepath.ToSlash(dir)), true
}

// receiverName is the type name of a method receiver (T, *T, T[P]).
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
