package cnf

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestLitEncoding(t *testing.T) {
	for v := 0; v < 100; v++ {
		for _, neg := range []bool{false, true} {
			l := MkLit(v, neg)
			if l.Var() != v || l.Sign() != neg {
				t.Fatalf("MkLit(%d,%v) round trip failed", v, neg)
			}
			if l.Not().Var() != v || l.Not().Sign() == neg {
				t.Fatal("Not broken")
			}
			if FromDimacs(l.Dimacs()) != l {
				t.Fatal("DIMACS round trip failed")
			}
		}
	}
}

func TestLitDimacsQuick(t *testing.T) {
	f := func(d int16) bool {
		if d == 0 {
			return true
		}
		return FromDimacs(int(d)).Dimacs() == int(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromDimacsZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	FromDimacs(0)
}

func TestFormulaAddGrowsVars(t *testing.T) {
	var f Formula
	f.Add(MkLit(4, false), MkLit(2, true))
	if f.NumVars != 5 {
		t.Fatalf("NumVars = %d", f.NumVars)
	}
}

func TestFormulaEval(t *testing.T) {
	var f Formula
	// (x0 | !x1) & (x1 | x2)
	f.Add(MkLit(0, false), MkLit(1, true))
	f.Add(MkLit(1, false), MkLit(2, false))
	cases := []struct {
		a    []bool
		want bool
	}{
		{[]bool{true, true, false}, true},
		{[]bool{false, false, true}, true},
		{[]bool{false, true, false}, false},
		{[]bool{true, false, false}, false},
	}
	for _, tc := range cases {
		if got := f.Eval(tc.a); got != tc.want {
			t.Errorf("Eval(%v) = %v", tc.a, got)
		}
	}
}

func TestDimacsRoundTrip(t *testing.T) {
	var f Formula
	f.Add(MkLit(0, false), MkLit(1, true), MkLit(2, false))
	f.Add(MkLit(1, false))
	f.Add() // empty clause is representable
	var buf bytes.Buffer
	writeDimacs(&buf, &f)
	g, err := ParseDimacs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVars != f.NumVars || len(g.Clauses) != len(f.Clauses) {
		t.Fatalf("round trip: %d/%d vs %d/%d", g.NumVars, len(g.Clauses), f.NumVars, len(f.Clauses))
	}
	for i := range f.Clauses {
		if len(f.Clauses[i]) != len(g.Clauses[i]) {
			t.Fatalf("clause %d length changed", i)
		}
		for j := range f.Clauses[i] {
			if f.Clauses[i][j] != g.Clauses[i][j] {
				t.Fatalf("clause %d literal %d changed", i, j)
			}
		}
	}
}

func TestParseDimacsFormats(t *testing.T) {
	src := `c a comment
p cnf 3 2
1 -2 0
c interleaved
-1 2
3 0
%
0
`
	f, err := ParseDimacs(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || len(f.Clauses) != 2 {
		t.Fatalf("got %d vars %d clauses", f.NumVars, len(f.Clauses))
	}
	if len(f.Clauses[1]) != 3 {
		t.Fatal("multi-line clause not joined")
	}
}

func TestParseDimacsErrors(t *testing.T) {
	for _, src := range []string{
		"p cnf x 2\n1 0\n",
		"p dnf 1 1\n1 0\n",
		"p cnf 1 1\none 0\n",
	} {
		if _, err := ParseDimacs(strings.NewReader(src)); err == nil {
			t.Errorf("want error for %q", src)
		}
	}
}

// TestParseDimacsRejectsOutOfRange pins the bounds on outside input: a
// literal beyond variable 2^30, or a larger declared variable count, is an
// error naming its line, not a literal wrapped into the int32 Lit or a
// variable count the solver would allocate for.
func TestParseDimacsRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct{ name, src, line string }{
		{"clause literal", "1 2000000000 0\n", "dimacs:1:"},
		{"negative literal", "c wraps to -1\n-2147483649 0\n", "dimacs:2:"},
		{"xor literal", "p cnf 3 1\nx 99999999999 0\n", "dimacs:2:"},
		{"declared variables", "p cnf 3000000000 0\n", "dimacs:1:"},
	} {
		f, err := ParseDimacs(strings.NewReader(tc.src))
		if err == nil {
			t.Errorf("%s: parsed %q as %+v, want an error", tc.name, tc.src, f)
			continue
		}
		if !strings.HasPrefix(err.Error(), tc.line) {
			t.Errorf("%s: error %q does not name its line (%s)", tc.name, err, tc.line)
		}
	}
	// The largest variable still parses, on both sides of the bound.
	f, err := ParseDimacs(strings.NewReader("p cnf 1073741824 1\n1073741824 -1073741824 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != maxDimacsVars || f.Clauses[0][0].Var() != maxDimacsVars-1 || !f.Clauses[0][1].Sign() {
		t.Fatalf("boundary formula = %d vars, clause %v", f.NumVars, f.Clauses[0])
	}
}
