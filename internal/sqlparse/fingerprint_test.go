package sqlparse

import "testing"

func TestFingerprint(t *testing.T) {
	cases := []struct {
		name string
		in   []string // all must share one fingerprint
		want string
	}{
		{
			name: "int literals collapse",
			in: []string{
				"SELECT a FROM t WHERE b = 1",
				"SELECT a FROM t WHERE b = 99999",
				"select  a\nfrom t where b=42",
			},
			want: "SELECT a FROM t WHERE b = ?",
		},
		{
			name: "strings floats and params collapse",
			in: []string{
				"INSERT INTO t VALUES (1, 'x', 2.5)",
				"INSERT INTO t VALUES (?, ?, ?)",
				"insert into T values (7, 'long string here', 1e9)",
			},
			want: "INSERT INTO t VALUES ( ? , ? , ? )",
		},
		{
			name: "identifier case folds, keyword case folds up",
			in: []string{
				"SELECT Foo FROM Bar",
				"select foo from bar",
			},
			want: "SELECT foo FROM bar",
		},
		{
			name: "comments and whitespace vanish",
			in: []string{
				"SELECT a FROM t -- trailing comment\nWHERE b < 10",
				"SELECT a FROM t WHERE b < 3",
			},
			want: "SELECT a FROM t WHERE b < ?",
		},
	}
	for _, tc := range cases {
		for _, sql := range tc.in {
			if got := Fingerprint(sql); got != tc.want {
				t.Errorf("%s: Fingerprint(%q) = %q, want %q", tc.name, sql, got, tc.want)
			}
		}
	}
}

func TestFingerprintKeepsShapesApart(t *testing.T) {
	for _, pair := range [][2]string{
		// Different predicates.
		{"SELECT * FROM t WHERE id = 42 AND name = 'bob'", "SELECT * FROM t WHERE other = 3"},
		// Digits inside an identifier are part of the name, not a literal:
		// two tables must not fold into one digest row.
		{"SELECT v FROM acct1 WHERE id = 5", "SELECT v FROM acct2 WHERE id = 5"},
	} {
		if a, b := Fingerprint(pair[0]), Fingerprint(pair[1]); a == b {
			t.Errorf("%q and %q share fingerprint %q", pair[0], pair[1], a)
		}
	}
	// An escaped quote stays inside its literal.
	if got := Fingerprint("SELECT 'o''brien'"); got != "SELECT ?" {
		t.Errorf("escaped quote leaked: %q", got)
	}
}

func TestFingerprintPreservesArity(t *testing.T) {
	a := Fingerprint("SELECT a FROM t WHERE b IN (1, 2)")
	b := Fingerprint("SELECT a FROM t WHERE b IN (1, 2, 3)")
	if a == b {
		t.Fatalf("IN-list arity collapsed: %q", a)
	}
}

func TestFingerprintLexErrorFallback(t *testing.T) {
	// '#' does not lex; the fallback is a whitespace-squeezed lower-cased
	// copy, so even rejected text lands in a stable digest row.
	got := Fingerprint("SELECT  # broken")
	if got != "select # broken" {
		t.Fatalf("fallback fingerprint = %q", got)
	}
}
