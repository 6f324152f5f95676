package anywheredb

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// unusedExports is the ratchet's allow-list: the exported top-level
// functions and methods of this module that no non-test file in the tree
// names outside their own declaration. Each is here for the reason given,
// and every reason starts with one of unusedExportReasons. The list may
// shrink but never grow past maxUnusedExports: a new export must be named
// by the program, and an entry whose function is deleted or gains a caller
// must be taken off.
var unusedExports = map[string]string{
	"anywheredb.Double":                              "public API",
	"anywheredb/internal/buffer.Pool.FlushPage":      "test instrument: core's crash tests write back one chosen page",
	"anywheredb/internal/cachegov.Governor.Interval": "ROADMAP item 4 wires or deletes it once the runner lands",
	"anywheredb/internal/core.DB.ReorgOnce":          "ROADMAP item 4 wires or deletes it once the runner lands",
	"anywheredb/internal/exec.hitsByKey.Less":        "interface method: sort.Interface",
	"anywheredb/internal/exec.runMerge.Less":         "interface method: sort.Interface (container/heap)",
	"anywheredb/internal/heap.Heap.PageIDs":          "test instrument: exec's partition-eviction test compares page identities",
	"anywheredb/internal/mem.Governor.SetMPL":        "ROADMAP item 4 wires or deletes it once the runner lands",
	"anywheredb/internal/osenv.Machine.SetPoolFunc":  "ROADMAP item 4 wires or deletes it once the runner lands",
	"anywheredb/internal/profile.AnalyzeTelemetry":   "ROADMAP item 4 wires or deletes it once the runner lands",
}

// maxUnusedExports is the ceiling on unusedExports.
const maxUnusedExports = 10

// unusedExportReasons are the reasons an export may stay unnamed: the
// library's public surface, a method the language calls through an
// interface, a self-management entry point waiting for item 4's runner, or
// an instrument tests in another package use.
var unusedExportReasons = []string{"public API", "interface method", "ROADMAP item 4", "test instrument"}

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
	if len(unusedExports) > maxUnusedExports {
		t.Errorf("unusedExports has %d entries, more than the ceiling of %d", len(unusedExports), maxUnusedExports)
	}
	for key, reason := range unusedExports {
		if !slices.ContainsFunc(unusedExportReasons, func(p string) bool { return strings.HasPrefix(reason, p) }) {
			t.Errorf("%s: reason %q starts with none of %q", key, reason, unusedExportReasons)
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

// unsetOptions is the options ratchet's allow-list: the fields of
// core.Options that no program sets — no non-test file outside
// internal/experiments, examples/ and core itself, whose defaults are not a
// choice. Each is here for the reason given, and every reason starts with
// one of unsetOptionReasons. The list may shrink but never grow past
// maxUnsetOptions: a new field must be set by a program, and an entry whose
// field is deleted or gains a setter must be taken off.
var unsetOptions = map[string]string{
	"CEMode":           "experiment input: the Windows CE cache governor of a simulated handheld",
	"CPURowCost":       "experiment input: the per-row CPU proxy the cost-model experiments charge",
	"Clock":            "experiment input: the virtual clock a simulation advances",
	"Device":           "experiment input: the simulated storage device (ROADMAP item 11)",
	"Injector":         "test instrument: fault injection and the torture tests",
	"MPL":              "ROADMAP item 4: the admission width, for the runner to choose",
	"ParanoidRecovery": "test instrument: torture runs verify that replay is idempotent",
	"TotalRAM":         "experiment input: the simulated machine's memory (ROADMAP item 11)",
	"VacuumInterval":   "ROADMAP item 4: the vacuum period, for the runner to choose",
}

// maxUnsetOptions is the ceiling on unsetOptions.
const maxUnsetOptions = 9

// unsetOptionReasons are the reasons a field of core.Options may be set by
// no program: an instrument of tests, an input of the simulated machine
// that experiments build, a detail of replication, or a choice waiting for
// item 4's runner.
var unsetOptionReasons = []string{"test instrument", "experiment input", "replica internals", "ROADMAP item 4"}

// TestNoNewUnsetOptions is a ratchet over knobs nothing turns, using only
// go/parser: it fails when a field of core.Options is set by no program
// and is not on unsetOptions, and when an entry there no longer names such
// a field. A field counts as set where a core.Options literal keys it, or
// where a file that imports core assigns to a selector of its name, so a
// same-named field of another struct can hide an unset one: the check
// under-reports, never over-reports.
func TestNoNewUnsetOptions(t *testing.T) {
	const corePath = "anywheredb/internal/core"
	fset := token.NewFileSet()
	var fields []string
	set := map[string]bool{}
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
		dir := filepath.ToSlash(filepath.Dir(p))
		if dir == "internal/core" {
			fields = append(fields, optionFields(f)...)
			return nil
		}
		if strings.HasPrefix(dir, "internal/experiments") || strings.HasPrefix(dir, "examples") {
			return nil
		}
		importsCore := slices.ContainsFunc(f.Imports, func(s *ast.ImportSpec) bool { return s.Path.Value == `"`+corePath+`"` })
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Options" && fmt.Sprint(sel.X) == "core" {
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if k, ok := kv.Key.(*ast.Ident); ok {
								set[k.Name] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && importsCore {
						set[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) == 0 {
		t.Fatal("found no core.Options struct")
	}
	if len(unsetOptions) > maxUnsetOptions {
		t.Errorf("unsetOptions has %d entries, more than the ceiling of %d", len(unsetOptions), maxUnsetOptions)
	}
	for name, reason := range unsetOptions {
		if !slices.ContainsFunc(unsetOptionReasons, func(p string) bool { return strings.HasPrefix(reason, p) }) {
			t.Errorf("%s: reason %q starts with none of %q", name, reason, unsetOptionReasons)
		}
		if !slices.Contains(fields, name) || set[name] {
			t.Errorf("%s is on unsetOptions but is no longer a core.Options field that no program sets: take it off the list", name)
		}
	}
	for _, name := range fields {
		if _, ok := unsetOptions[name]; !ok && !set[name] {
			t.Errorf("core.Options.%s is set by no program: give it the loop that chooses it, make it an input only experiments and tests build, or delete it", name)
		}
	}
	t.Logf("core.Options has %d fields, %d of them set by no program", len(fields), len(unsetOptions))
}

// observers are the packages that publish what the engine counts: the
// telemetry registry and the flight recorder.
var observers = []string{"anywheredb/internal/telemetry", "anywheredb/internal/flightrec"}

// countingLayers are the packages below core. Each counts what it did in
// plain values, and core publishes them, so none depends on an observer.
var countingLayers = []string{
	"table", "exec", "opt", "txn", "lock", "wal", "buffer", "mem",
	"mvcc", "btree", "store", "heap", "colseg", "stats", "cachegov",
}

// TestNoLayerBelowCoreDependsOnObservers is a layering ratchet, using only
// go/parser: it fails when a package of countingLayers depends on one of
// observers through the imports of its non-test files, directly or through
// other packages of this module.
func TestNoLayerBelowCoreDependsOnObservers(t *testing.T) {
	fset := token.NewFileSet()
	imports := map[string][]string{} // package -> module packages its non-test files import
	var load func(pkg string)
	load = func(pkg string) {
		if _, done := imports[pkg]; done {
			return
		}
		imports[pkg] = nil
		files, err := filepath.Glob(filepath.Join(strings.TrimPrefix(pkg, "anywheredb/"), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range files {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				dep := strings.Trim(imp.Path.Value, `"`)
				if strings.HasPrefix(dep, "anywheredb/") && !slices.Contains(imports[pkg], dep) {
					imports[pkg] = append(imports[pkg], dep)
					load(dep)
				}
			}
		}
		if files == nil {
			t.Fatalf("found no files of %s", pkg)
		}
	}
	for _, layer := range countingLayers {
		pkg := "anywheredb/internal/" + layer
		load(pkg)
		// path records how each reached package was first reached.
		path := map[string]string{pkg: ""}
		queue := []string{pkg}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if slices.Contains(observers, cur) {
				chain := cur
				for p := path[cur]; p != ""; p = path[p] {
					chain = p + " -> " + chain
				}
				t.Errorf("%s depends on %s (%s): count in plain values and let core publish them", pkg, cur, chain)
				continue
			}
			for _, dep := range imports[cur] {
				if _, seen := path[dep]; !seen {
					path[dep] = cur
					queue = append(queue, dep)
				}
			}
		}
	}
}

// optionFields lists the field names of the struct named Options that f
// declares, if any.
func optionFields(f *ast.File) []string {
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Options" {
			return true
		}
		if st, ok := ts.Type.(*ast.StructType); ok {
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					names = append(names, id.Name)
				}
			}
		}
		return false
	})
	return names
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
