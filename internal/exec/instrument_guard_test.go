package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// These guards parse the exec package source. The first verifies that the
// child-walking type switches in Instrument, Children, and Describe stay
// exhaustive as operators are added: a new Operator implementation with an
// Operator-typed field (directly, through a pointer/slice, or inside an
// embedded struct) that is missing from Instrument would silently lose its
// subtree's EXPLAIN ANALYZE actuals. The second verifies that the planner
// can build every operator: one that no plan contains is a second code path
// no statement reaches.

type execPkgInfo struct {
	structs map[string]*ast.StructType
	methods map[string]map[string]bool // type name -> method set
	cases   map[string]map[string]bool // func name -> case type names
}

func parseExecPkg(t *testing.T) *execPkgInfo {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["exec"]
	if !ok {
		t.Fatalf("package exec not found (got %v)", pkgs)
	}

	info := &execPkgInfo{
		structs: map[string]*ast.StructType{},
		methods: map[string]map[string]bool{},
		cases:   map[string]map[string]bool{},
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if st, ok := ts.Type.(*ast.StructType); ok {
						info.structs[ts.Name.Name] = st
					}
				}
			case *ast.FuncDecl:
				if d.Recv != nil && len(d.Recv.List) == 1 {
					if name := recvTypeName(d.Recv.List[0].Type); name != "" {
						m := info.methods[name]
						if m == nil {
							m = map[string]bool{}
							info.methods[name] = m
						}
						m[d.Name.Name] = true
					}
					continue
				}
				switch d.Name.Name {
				case "Instrument", "Children", "Describe":
					info.cases[d.Name.Name] = collectSwitchCases(d)
				}
			}
		}
	}
	return info
}

func recvTypeName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// collectSwitchCases gathers the *T type names of every case clause in the
// (single) type switch inside fn.
func collectSwitchCases(fn *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(fn, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		for _, e := range cc.List {
			if name := recvTypeName(e); name != "" {
				out[name] = true
			}
		}
		return true
	})
	return out
}

// implementsOperator reports whether *T has the full batch protocol.
func (p *execPkgInfo) implementsOperator(name string) bool {
	m := p.methods[name]
	return m["Open"] && m["NextBatch"] && m["Close"]
}

// bearsOperator reports whether a value of the named struct type holds
// child operators reachable through its fields (transitively through named
// structs, pointers, and slices; function types are opaque — a closure
// cannot be instrumented from outside).
func (p *execPkgInfo) bearsOperator(name string, seen map[string]bool) bool {
	if seen[name] {
		return false
	}
	seen[name] = true
	st, ok := p.structs[name]
	if !ok {
		return false
	}
	for _, f := range st.Fields.List {
		if p.typeBearsOperator(f.Type, seen) {
			return true
		}
	}
	return false
}

func (p *execPkgInfo) typeBearsOperator(e ast.Expr, seen map[string]bool) bool {
	switch t := e.(type) {
	case *ast.Ident:
		if t.Name == "Operator" {
			return true
		}
		return p.bearsOperator(t.Name, seen)
	case *ast.StarExpr:
		return p.typeBearsOperator(t.X, seen)
	case *ast.ArrayType:
		return p.typeBearsOperator(t.Elt, seen)
	case *ast.MapType:
		return p.typeBearsOperator(t.Value, seen)
	}
	return false
}

func TestInstrumentSwitchExhaustive(t *testing.T) {
	info := parseExecPkg(t)
	for _, fn := range []string{"Instrument", "Children", "Describe"} {
		if len(info.cases[fn]) == 0 {
			t.Fatalf("no type-switch cases found in %s", fn)
		}
	}

	var operators []string
	for name := range info.methods {
		if info.implementsOperator(name) && name != "Stat" {
			operators = append(operators, name)
		}
	}
	if len(operators) < 15 {
		t.Fatalf("found only %d Operator implementations — parser miss? %v", len(operators), operators)
	}

	for _, name := range operators {
		hasChildren := info.bearsOperator(name, map[string]bool{})
		if hasChildren && !info.cases["Instrument"][name] {
			t.Errorf("*%s holds child operators but Instrument's switch has no case for it: "+
				"its subtree would run uninstrumented under EXPLAIN ANALYZE", name)
		}
		if hasChildren && !info.cases["Children"][name] {
			t.Errorf("*%s holds child operators but Children's switch has no case for it: "+
				"EXPLAIN would not render its subtree", name)
		}
		if !info.cases["Describe"][name] {
			t.Errorf("*%s has no Describe case: EXPLAIN would print a raw %%T label", name)
		}
	}

	// Stale cases: every case must name a current Operator implementation.
	for _, fn := range []string{"Instrument", "Children", "Describe"} {
		for name := range info.cases[fn] {
			if !info.implementsOperator(name) {
				t.Errorf("%s has a case for *%s, which no longer implements Operator", fn, name)
			}
		}
	}
}

// TestEveryOperatorIsPlanned fails on an Operator implementation (other
// than the Stat wrapper) that no non-test file of internal/opt builds as an
// exec.T{…} composite literal.
func TestEveryOperatorIsPlanned(t *testing.T) {
	info := parseExecPkg(t)
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "../opt", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	built := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if sel, ok := lit.Type.(*ast.SelectorExpr); ok {
					if pkgID, ok := sel.X.(*ast.Ident); ok && pkgID.Name == "exec" {
						built[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
	}
	if len(built) == 0 {
		t.Fatal("no exec composite literals found in internal/opt — parser miss?")
	}
	for name := range info.methods {
		if info.implementsOperator(name) && name != "Stat" && !built[name] {
			t.Errorf("*%s implements Operator but internal/opt never builds one: no statement can reach it", name)
		}
	}
}
