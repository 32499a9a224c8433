package cnf

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// writeDimacs writes f in the form ParseDimacs reads: parity constraints
// are cryptominisat "x ..." lines, counted in the problem line's clause
// total as that solver does.
func writeDimacs(w *bytes.Buffer, f *Formula) {
	fmt.Fprintf(w, "p cnf %d %d\n", f.NumVars, len(f.Clauses)+len(f.Xors))
	for _, c := range f.Clauses {
		for _, l := range c {
			fmt.Fprintf(w, "%d ", l.Dimacs())
		}
		fmt.Fprintln(w, 0)
	}
	for _, x := range f.Xors {
		w.WriteString("x")
		for _, l := range x {
			fmt.Fprintf(w, " %d", l.Dimacs())
		}
		fmt.Fprintln(w, " 0")
	}
}

// FuzzParseDimacs feeds arbitrary bytes to the DIMACS reader. Every input
// yields an error or a formula whose literals all name a variable below
// NumVars, and that formula written back as DIMACS parses back equal.
func FuzzParseDimacs(f *testing.F) {
	for _, seed := range []string{
		// The small instances internal/sat solves through this reader.
		"c trivial\np cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n",
		"p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n",
		"p cnf 6 9\n1 0\n-1 2 0\n-2 3 0\n-3 4 0\n-4 5 0\n-5 6 0\n-6 -1 0\n2 4 6 0\n-2 -4 0\n",
		// XOR rows, a %-terminated file and a clause split over lines.
		"p cnf 3 2\nx 1 -2 3 0\nx1 2 0\n",
		"c a comment\np cnf 3 2\n1 -2 0\n-1 2\n3 0\n%\n0\n",
		// The out-of-range inputs the reader rejects.
		"1 2000000000 0\n",
		"-2147483649 0\n",
		"x 99999999999 0\n",
		"p cnf 3000000000 0\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseDimacs(bytes.NewReader(data))
		if err != nil {
			return
		}
		check := func(lits []Lit) {
			for _, l := range lits {
				if l.Var() < 0 || l.Var() >= g.NumVars {
					t.Fatalf("literal %v outside the %d variables", l, g.NumVars)
				}
			}
		}
		for _, c := range g.Clauses {
			check(c)
		}
		for _, x := range g.Xors {
			check(x)
		}
		var buf bytes.Buffer
		writeDimacs(&buf, g)
		h, err := ParseDimacs(&buf)
		if err != nil {
			t.Fatalf("written formula does not parse: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(g, h) {
			t.Fatalf("round trip changed the formula:\n%+v\n%+v", g, h)
		}
	})
}
