package sqlparse

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"anywheredb/internal/val"
)

// m is liftMark as it shows in an expected key.
const m = "\x00"

func ints(vs ...int64) []val.Value {
	out := make([]val.Value, len(vs))
	for i, v := range vs {
		out[i] = val.NewInt(v)
	}
	return out
}

// TestLiftRule is the lift rule as a table: what leaves the key, and what
// must not. An empty key means the key is the text itself.
func TestLiftRule(t *testing.T) {
	str := val.NewStr
	for _, c := range []struct {
		name, src, key string
		values         []val.Value
	}{
		{"where", "SELECT v FROM acct WHERE id = 17", "SELECT v FROM acct WHERE id = " + m, ints(17)},
		{"where, every kind", "SELECT v FROM t WHERE a = 1 AND b < 2.5 AND s LIKE 'x%'",
			"SELECT v FROM t WHERE a = " + m + " AND b < " + m + " AND s LIKE " + m, []val.Value{val.NewInt(1), val.NewDouble(2.5), str("x%")}},
		{"LIMIT n", "SELECT v FROM t WHERE a = 1 LIMIT 5", "SELECT v FROM t WHERE a = " + m + " LIMIT 5", ints(1)},
		{"ORDER BY 2", "SELECT a, b FROM t WHERE c = 'x' ORDER BY 2, a + 1", "SELECT a, b FROM t WHERE c = " + m + " ORDER BY 2, a + 1", []val.Value{str("x")}},
		{"select list and GROUP BY", "SELECT a+1 FROM t WHERE b = 2 GROUP BY a+1", "SELECT a+1 FROM t WHERE b = " + m + " GROUP BY a+1", ints(2)},
		{"HAVING", "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 3", "", nil},
		{"VARCHAR(72)", "CREATE TABLE t (a INT, b VARCHAR(72))", "", nil},
		{"LOAD path", "LOAD TABLE t FROM '/tmp/t.csv' STORE COLUMNAR", "", nil},
		{"CALIBRATE", "CALIBRATE DATABASE", "", nil},
		{"CREATE INDEX", "CREATE UNIQUE INDEX t_a ON t (a)", "", nil},
		{"BEGIN", "BEGIN READ ONLY", "", nil},
		{"NULL is a keyword", "SELECT a FROM t WHERE b = NULL OR c IN (1, NULL)", "SELECT a FROM t WHERE b = NULL OR c IN (" + m + ", NULL)", ints(1)},
		{"nested block, same rule",
			"SELECT a FROM t WHERE x IN (SELECT a+1 FROM u WHERE c = 4 GROUP BY a+1 LIMIT 3) AND d = 5",
			"SELECT a FROM t WHERE x IN (SELECT a+1 FROM u WHERE c = " + m + " GROUP BY a+1 LIMIT 3) AND d = " + m, ints(4, 5)},
		{"EXISTS", "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE tag = 'gold') AND b = 2",
			"SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE tag = " + m + ") AND b = " + m, []val.Value{str("gold"), val.NewInt(2)}},
		{"a user's ? keeps its shape", "SELECT v FROM t WHERE id = ?", "", nil},
		{"? beside a literal", "SELECT v FROM t WHERE a = 7 AND id = ?", "SELECT v FROM t WHERE a = " + m + " AND id = ?", ints(7)},
		{"JOIN ... ON", "SELECT a FROM t JOIN u ON t.k = u.k AND u.z = 3 LEFT OUTER JOIN w ON w.k = 9 WHERE t.y = 4",
			"SELECT a FROM t JOIN u ON t.k = u.k AND u.z = " + m + " LEFT OUTER JOIN w ON w.k = " + m + " WHERE t.y = " + m, ints(3, 9, 4)},
		{"UPDATE SET and WHERE", "UPDATE t SET a = 5, b = b + 1 WHERE c = 'x'", "UPDATE t SET a = " + m + ", b = b + " + m + " WHERE c = " + m,
			[]val.Value{val.NewInt(5), val.NewInt(1), str("x")}},
		{"DELETE", "DELETE FROM t WHERE id >= 280", "DELETE FROM t WHERE id >= " + m, ints(280)},
		{"INSERT VALUES", "INSERT INTO t (a, b) VALUES (1, 'a'), (2, NULL)", "INSERT INTO t (a, b) VALUES (" + m + ", " + m + "), (" + m + ", NULL)",
			[]val.Value{val.NewInt(1), str("a"), val.NewInt(2)}},
		{"INSERT SELECT", "INSERT INTO x SELECT id, 5 FROM a WHERE id = 7", "INSERT INTO x SELECT id, 5 FROM a WHERE id = " + m, ints(7)},
		{"EXPLAIN", "EXPLAIN ANALYZE SELECT v FROM t WHERE id = 3", "EXPLAIN ANALYZE SELECT v FROM t WHERE id = " + m, ints(3)},
		{"UNION, ORDER BY, LIMIT", "SELECT a FROM t WHERE b = 1 UNION ALL SELECT a FROM u WHERE b = 2 ORDER BY 1 LIMIT 2",
			"SELECT a FROM t WHERE b = " + m + " UNION ALL SELECT a FROM u WHERE b = " + m + " ORDER BY 1 LIMIT 2", ints(1, 2)},
		{"CTE", "WITH g (d, n) AS (SELECT d, COUNT(*) FROM e WHERE k < 7 GROUP BY d) SELECT d, NOT (n > 1) FROM g WHERE d <> 0",
			"WITH g (d, n) AS (SELECT d, COUNT(*) FROM e WHERE k < " + m + " GROUP BY d) SELECT d, NOT (n > 1) FROM g WHERE d <> " + m, ints(7, 0)},
		{"sign is an operator", "SELECT a FROM t WHERE b = -1", "SELECT a FROM t WHERE b = -" + m, ints(1)},
		{"quote in a string", "SELECT a FROM t WHERE s = 'it''s'", "SELECT a FROM t WHERE s = " + m, []val.Value{str("it's")}},
		{"spelling, spacing and comments stay", "select  V from T where ID=1 -- 7\n and c = 2;",
			"select  V from T where ID=" + m + " -- 7\n and c = " + m + ";", ints(1, 2)},
		{"a literal that does not convert", "SELECT a FROM t WHERE b = 99999999999999999999 AND c = 1", "", nil},
		{"text that does not lex", "SELECT a FROM t WHERE b = 1 AND c = $", "\x01SELECT a FROM t WHERE b = 1 AND c = $", nil},
	} {
		var r Reader
		key, values := r.Read(c.src)
		if string(key) != c.key || !reflect.DeepEqual(values, c.values) {
			t.Errorf("%s: %q\n  key    %q\n  want   %q\n  values %v, want %v", c.name, c.src, key, c.key, values, c.values)
		}
	}

	// Slots are numbered after the text's own parameters, in source order.
	var r Reader
	r.Read("SELECT v FROM t WHERE a = 7 AND id = ? AND b = 8")
	got, _, err := r.Parse()
	want, _ := Parse("SELECT v FROM t WHERE a = ? AND id = ? AND b = ?")
	wantWhere := want.(*Select).Where.(*BinOp)
	wantWhere.L.(*BinOp).L.(*BinOp).R = &Param{Idx: 2}
	wantWhere.L.(*BinOp).R.(*BinOp).R = &Param{Idx: 1}
	wantWhere.R.(*BinOp).R = &Param{Idx: 3}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("lifted slots: %#v, %v", got.(*Select).Where, err)
	}

	// GROUP BY matches a select item by its literal's value: both stay in
	// the key, so a+2 ... GROUP BY a+1 is a different shape from a+1 ... a+1.
	k1, _ := r.Read("SELECT a+1 FROM t GROUP BY a+1")
	k2, _ := r.Read("SELECT a+2 FROM t GROUP BY a+1")
	if k1 != nil || k2 != nil {
		t.Errorf("select-list and GROUP BY literals were lifted: %q, %q", k1, k2)
	}
}

// literalText spells a lifted value as a literal that reads back to it.
func literalText(v val.Value) string {
	switch v.Kind {
	case val.KInt:
		return strconv.FormatInt(v.I, 10)
	case val.KDouble:
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".e") {
			s += ".0"
		}
		return s
	}
	return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
}

// unlift replaces, anywhere under x, every parameter slot numbered above
// nUser by the literal it was lifted from.
func unlift(x reflect.Value, nUser int, values []val.Value) {
	switch x.Kind() {
	case reflect.Interface:
		if x.IsNil() {
			return
		}
		if p, ok := x.Interface().(*Param); ok && p.Idx > nUser {
			x.Set(reflect.ValueOf(&Lit{Val: values[p.Idx-nUser-1]}))
			return
		}
		unlift(x.Elem(), nUser, values)
	case reflect.Pointer:
		if !x.IsNil() {
			unlift(x.Elem(), nUser, values)
		}
	case reflect.Struct:
		for i := 0; i < x.NumField(); i++ {
			unlift(x.Field(i), nUser, values)
		}
	case reflect.Slice:
		for i := 0; i < x.Len(); i++ {
			unlift(x.Index(i), nUser, values)
		}
	}
}

// checkRead holds one text to the Reader's contract (FuzzPrepare's body).
func checkRead(t *testing.T, src string) {
	t.Helper()
	wantStmt, wantErr := Parse(src)
	var r Reader
	key, values := r.Read(src)
	_, lexErr := lex(src)
	switch {
	case lexErr != nil:
		if string(key) != "\x01"+src || values != nil {
			t.Fatalf("%q does not lex, but has key %q and values %v", src, key, values)
		}
	case key == nil:
		if values != nil {
			t.Fatalf("%q: values %v beside a verbatim key", src, values)
		}
	default:
		// The key is the text with exactly the lifted literals cut out.
		if n := strings.Count(string(key), m) - strings.Count(src, m); n != len(values) || len(values) == 0 {
			t.Fatalf("%q: key %q has %d marks, %d values", src, key, n, len(values))
		}
	}
	keyText := string(key)

	stmt, fp, err := r.Parse()
	if err != nil && key != nil && lexErr == nil {
		// Lexes, lifts, does not parse: read again verbatim.
		r.Verbatim()
		values = nil
		stmt, fp, err = r.Parse()
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Reader(%q): error %v, Parse gives %v", src, err, wantErr)
	}
	if (stmt == nil) == (err == nil) {
		t.Fatalf("Reader(%q): statement %#v beside error %v", src, stmt, err)
	}
	if want := Fingerprint(src); fp != want {
		t.Fatalf("Reader(%q): fingerprint %q, Fingerprint gives %q", src, fp, want)
	}
	if lexErr == nil {
		if again := Fingerprint(fp); again != fp {
			t.Fatalf("Fingerprint(%q) = %q, and of that %q", src, fp, again)
		}
	} else if fp != fallbackFingerprint(fp) {
		t.Fatalf("fallback fingerprint %q of %q is not its own fallback", fp, src)
	}
	if err != nil {
		return
	}

	// The shape with its values put back is the statement as written.
	if len(values) > 0 {
		// Substituting the values back as literals and reading again gives
		// the same key and the same values.
		var sb strings.Builder
		prev, k := 0, 0
		for _, tok := range r.toks {
			if tok.lifted {
				sb.WriteString(src[prev:tok.pos])
				sb.WriteString(literalText(values[k]))
				prev, k = tok.end, k+1
			}
		}
		sb.WriteString(src[prev:])
		var again Reader
		key2, values2 := again.Read(sb.String())
		if string(key2) != keyText || !reflect.DeepEqual(values2, values) {
			t.Fatalf("%q read back as %q:\n  key    %q, was %q\n  values %v, were %v", src, sb.String(), key2, keyText, values2, values)
		}
	}
	unlift(reflect.ValueOf(&stmt).Elem(), r.nUser, values)
	if !reflect.DeepEqual(stmt, wantStmt) {
		t.Fatalf("Reader(%q) with its %d values put back is %#v; Parse gives %#v", src, len(values), stmt, wantStmt)
	}
}

// TestReaderReuse: one Reader reads text after text, each as a fresh one
// would, and a read whose shape is known allocates only the value vector.
func TestReaderReuse(t *testing.T) {
	var shared Reader
	for _, src := range prepareSeeds {
		var fresh Reader
		k1, v1 := shared.Read(src)
		k2, v2 := fresh.Read(src)
		if string(k1) != string(k2) || !reflect.DeepEqual(v1, v2) {
			t.Errorf("%q: a reused Reader gives %q %v, a fresh one %q %v", src, k1, v1, k2, v2)
		}
		shared.Release()
	}
	const src = "UPDATE acct SET v = 18 WHERE id = 4711 AND pad <> 'x'"
	if n := testing.AllocsPerRun(100, func() {
		shared.Read(src)
		shared.Release()
	}); n != 1 {
		t.Errorf("reading a known shape allocates %v objects, want 1 (the value vector)", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		shared.Read("commit")
		shared.Release()
	}); n != 0 {
		t.Errorf("reading a text with nothing to lift allocates %v objects, want 0", n)
	}
}
