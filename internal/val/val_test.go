package val

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewDouble(2.5), -1},
		{NewDouble(2.0), NewInt(2), 0},
		{NewStr("a"), NewStr("b"), -1},
		{NewStr("b"), NewStr("b"), 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{NewInt(1), NewStr("1"), -1}, // incomparable kinds order by tag
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null, Null) {
		t.Fatal("NULL = NULL must be false in SQL")
	}
	if !Equal(NewInt(5), NewDouble(5)) {
		t.Fatal("5 = 5.0 should hold")
	}
}

func TestOrderHashMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b := rng.Int63n(1e9)-5e8, rng.Int63n(1e9)-5e8
		va, vb := NewInt(a), NewInt(b)
		ha, hb := OrderHash(va), OrderHash(vb)
		if (a < b && ha > hb) || (a > b && ha < hb) {
			t.Fatalf("OrderHash not monotone for ints %d,%d", a, b)
		}
	}
	strs := []string{"", "a", "aa", "ab", "b", "ba", "zzzz", "zzzzzzzzz"}
	for i := 0; i < len(strs)-1; i++ {
		if OrderHash(NewStr(strs[i])) > OrderHash(NewStr(strs[i+1])) {
			t.Fatalf("OrderHash not monotone for strings %q,%q", strs[i], strs[i+1])
		}
	}
	if !math.IsInf(OrderHash(Null), -1) {
		t.Fatal("OrderHash(NULL) should be -Inf")
	}
}

func TestWidths(t *testing.T) {
	if Width(KInt) != 1 {
		t.Fatal("INT width must be 1 (§3.1)")
	}
	if Width(KDouble) != 1e-35 {
		t.Fatal("REAL width must be 1e-35 (§3.1)")
	}
}

func TestHash64Equality(t *testing.T) {
	if Hash64(NewInt(5)) != Hash64(NewDouble(5)) {
		t.Fatal("equal numerics must hash equal")
	}
	if Hash64(NewStr("x")) == Hash64(NewStr("y")) {
		t.Fatal("distinct strings should (overwhelmingly) hash distinct")
	}
	if Hash64(Null) == Hash64(NewInt(0)) {
		t.Fatal("NULL must not collide with 0 by construction")
	}
}

func TestHashRowOrderSensitive(t *testing.T) {
	a := []Value{NewInt(1), NewInt(2)}
	b := []Value{NewInt(2), NewInt(1)}
	if HashRow(a) == HashRow(b) {
		t.Fatal("HashRow should be order-sensitive")
	}
}

func TestEncodeDecodeRow(t *testing.T) {
	rows := [][]Value{
		{},
		{Null},
		{NewInt(0), NewInt(-1), NewInt(math.MaxInt64), NewInt(math.MinInt64)},
		{NewDouble(3.14), NewDouble(-0.0), NewDouble(math.Inf(1))},
		{NewStr(""), NewStr("hello"), NewStr("with\x00nul")},
		{Null, NewInt(7), NewDouble(2.5), NewStr("mixed")},
	}
	for _, row := range rows {
		enc := EncodeRow(row)
		if RowSize(row) != len(enc) {
			t.Fatalf("RowSize(%v) = %d, encoding is %d bytes", row, RowSize(row), len(enc))
		}
		dec, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("DecodeRow(%v): %v", row, err)
		}
		if len(dec) != len(row) {
			t.Fatalf("row length %d, want %d", len(dec), len(row))
		}
		for i := range row {
			if row[i].Kind != dec[i].Kind || (row[i].Kind != KNull && Compare(row[i], dec[i]) != 0) {
				t.Fatalf("value %d: got %v, want %v", i, dec[i], row[i])
			}
		}
	}
}

func TestDecodeRowErrors(t *testing.T) {
	enc := EncodeRow([]Value{NewStr("hello"), NewInt(3)})
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeRow(enc[:n]); err == nil {
			t.Fatalf("truncation at %d bytes should error", n)
		}
	}
	if _, err := DecodeRow(append(enc, 0xFF)); err == nil {
		t.Fatal("trailing bytes should error")
	}
	if _, err := DecodeRow([]byte{1, 200}); err == nil {
		t.Fatal("bad kind byte should error")
	}
}

func TestDecodeRowPrefix(t *testing.T) {
	a := EncodeRow([]Value{NewInt(1)})
	b := EncodeRow([]Value{NewStr("two")})
	row, rest, err := DecodeRowPrefix(append(append([]byte{}, a...), b...))
	if err != nil || len(row) != 1 || row[0].I != 1 {
		t.Fatalf("prefix decode: row=%v err=%v", row, err)
	}
	row2, rest2, err := DecodeRowPrefix(rest)
	if err != nil || len(rest2) != 0 || row2[0].S != "two" {
		t.Fatalf("second decode: row=%v rest=%d err=%v", row2, len(rest2), err)
	}
}

// Property: EncodeKey preserves Compare order bytewise.
func TestQuickEncodeKeyOrder(t *testing.T) {
	gen := func(rng *rand.Rand) Value {
		switch rng.Intn(4) {
		case 0:
			return Null
		case 1:
			return NewInt(rng.Int63n(2000) - 1000)
		case 2:
			return NewDouble((rng.Float64() - 0.5) * 1000)
		default:
			n := rng.Intn(6)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(rng.Intn(4)) * 50 // include 0x00 bytes
			}
			return NewStr(string(b))
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := gen(rng), gen(rng)
		ka, kb := EncodeKey([]Value{a}), EncodeKey([]Value{b})
		cmp := Compare(a, b)
		kcmp := bytes.Compare(ka, kb)
		if cmp == 0 {
			return kcmp == 0
		}
		// Same sign.
		return (cmp < 0) == (kcmp < 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeKeyMultiColumn(t *testing.T) {
	a := EncodeKey([]Value{NewInt(1), NewStr("b")})
	b := EncodeKey([]Value{NewInt(1), NewStr("c")})
	c := EncodeKey([]Value{NewInt(2), NewStr("a")})
	if !(bytes.Compare(a, b) < 0 && bytes.Compare(b, c) < 0) {
		t.Fatal("multi-column key order broken")
	}
	// Prefix ordering: (1) < (1,"a").
	p := EncodeKey([]Value{NewInt(1)})
	q := EncodeKey([]Value{NewInt(1), NewStr("a")})
	if bytes.Compare(p, q) >= 0 {
		t.Fatal("prefix key should sort before extension")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_x_o", false},
		{"hello", "", false},
		{"", "", true},
		{"", "%", true},
		{"abc", "%%c", true},
		{"abc", "a%b%c%", true},
		{"mississippi", "%iss%ippi", true},
		{"mississippi", "%iss%ippx", false},
	}
	for _, c := range cases {
		if got := LikeMatch(c.s, c.p); got != c.want {
			t.Errorf("LikeMatch(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestWords(t *testing.T) {
	got := Words("  the quick\tbrown\nfox ")
	want := []string{"the", "quick", "brown", "fox"}
	if len(got) != len(want) {
		t.Fatalf("Words = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Words = %v", got)
		}
	}
}

func TestAsFloatAsInt(t *testing.T) {
	if NewStr("3.5").AsFloat() != 3.5 {
		t.Fatal("AsFloat on numeric string")
	}
	if NewStr("42").AsInt() != 42 {
		t.Fatal("AsInt on numeric string")
	}
	if NewDouble(7.9).AsInt() != 7 {
		t.Fatal("AsInt truncates")
	}
	if Null.AsFloat() != 0 || Null.AsInt() != 0 {
		t.Fatal("NULL numeric conversions are 0")
	}
}

func TestSQLString(t *testing.T) {
	if NewStr("o'brien").SQLString() != "'o''brien'" {
		t.Fatal("SQLString quoting")
	}
	if NewInt(5).SQLString() != "5" {
		t.Fatal("SQLString int")
	}
}

func TestValueString(t *testing.T) {
	if Null.String() != "NULL" || NewInt(3).String() != "3" || NewStr("x").String() != "x" {
		t.Fatal("String rendering")
	}
	if KInt.String() != "INT" || KNull.String() != "NULL" {
		t.Fatal("Kind rendering")
	}
}
