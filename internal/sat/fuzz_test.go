package sat

import (
	"math/rand"
	"testing"

	"dynunlock/internal/cnf"
)

// fuzzConstraint is one decoded constraint: a clause, or an XOR row whose
// literal values must sum to rhs over GF(2).
type fuzzConstraint struct {
	lits []cnf.Lit
	xor  bool
	rhs  bool
}

// holds reports whether the constraint is satisfied by assign.
func (c fuzzConstraint) holds(assign []bool) bool {
	parity := false
	for _, l := range c.lits {
		v := assign[l.Var()] != l.Sign()
		if v && !c.xor {
			return true
		}
		parity = parity != v
	}
	return c.xor && parity == c.rhs
}

// fuzzProblem is a formula over at most 12 variables, split into two
// incremental halves, plus assumptions for the second solve.
type fuzzProblem struct {
	nVars       int
	first, rest []fuzzConstraint
	assumptions []cnf.Lit
}

// decodeFuzzProblem reads byte 0 as the variable count, byte 1 as the
// assumption count with that many literal bytes after it, and the rest as
// constraint records: a header byte (bit 0 selects XOR, bits 1-2 give
// 1-4 literals, bit 3 the XOR rhs) followed by one byte per literal
// (variable modulo the count, bit 7 the sign). The first half of the
// records form the first solve; the rest are added before the second.
func decodeFuzzProblem(data []byte) fuzzProblem {
	var p fuzzProblem
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	b, _ := next()
	p.nVars = 1 + int(b)%12
	mkLit := func(b byte) cnf.Lit { return cnf.MkLit(int(b&0x7f)%p.nVars, b&0x80 != 0) }
	nAssume, _ := next()
	for i := 0; i < int(nAssume)%4; i++ {
		if b, ok := next(); ok {
			p.assumptions = append(p.assumptions, mkLit(b))
		}
	}
	var all []fuzzConstraint
	for len(all) < 48 {
		h, ok := next()
		if !ok {
			break
		}
		c := fuzzConstraint{xor: h&1 == 1, rhs: h&8 != 0}
		for i := 0; i < 1+int(h>>1)%4; i++ {
			if b, ok := next(); ok {
				c.lits = append(c.lits, mkLit(b))
			}
		}
		if len(c.lits) > 0 {
			all = append(all, c)
		}
	}
	p.first, p.rest = all[:len(all)/2], all[len(all)/2:]
	return p
}

// bruteForce reports whether some assignment satisfies every constraint
// and every assumption.
func bruteForce(nVars int, cs []fuzzConstraint, assumptions []cnf.Lit) bool {
	assign := make([]bool, nVars)
	for m := 0; m < 1<<uint(nVars); m++ {
		for v := range assign {
			assign[v] = m>>uint(v)&1 == 1
		}
		if satisfies(assign, cs, assumptions) {
			return true
		}
	}
	return false
}

func satisfies(assign []bool, cs []fuzzConstraint, assumptions []cnf.Lit) bool {
	for _, c := range cs {
		if !c.holds(assign) {
			return false
		}
	}
	for _, a := range assumptions {
		if assign[a.Var()] == a.Sign() {
			return false
		}
	}
	return true
}

// checkFuzzProblem solves p incrementally — the first half, then the rest
// under the assumptions — optionally running Simplify before each solve,
// and checks each answer and model against brute force.
func checkFuzzProblem(t *testing.T, p fuzzProblem, simplify bool) {
	s := New()
	for i := 0; i < p.nVars; i++ {
		s.NewVar()
	}
	add := func(cs []fuzzConstraint) {
		for _, c := range cs {
			if c.xor {
				s.AddXor(c.lits, c.rhs)
			} else {
				s.AddClause(c.lits...)
			}
		}
		if simplify {
			s.Simplify()
		}
	}
	check := func(stage string, cs []fuzzConstraint, assumptions []cnf.Lit) {
		want := bruteForce(p.nVars, cs, assumptions)
		got := s.Solve(assumptions...)
		switch {
		case got == Unknown:
			t.Fatalf("%s (simplify=%v): UNKNOWN without a budget", stage, simplify)
		case want != (got == Sat):
			t.Fatalf("%s (simplify=%v): solver %v, brute force satisfiable=%v", stage, simplify, got, want)
		case got == Sat && !satisfies(s.Model(), cs, assumptions):
			t.Fatalf("%s (simplify=%v): model %v violates the formula", stage, simplify, s.Model())
		}
	}
	add(p.first)
	check("first half", p.first, nil)
	add(p.rest)
	check("second half", append(append([]fuzzConstraint(nil), p.first...), p.rest...), p.assumptions)
}

// FuzzSolve checks the CDCL solver with its XOR layer and inprocessing
// against brute force on small incremental formulas, and that a Reset
// solver, after the formula, solves the formula of the input's second half
// exactly as a new solver does.
func FuzzSolve(f *testing.F) {
	// x0, then the tautology x1 ∨ ¬x1.
	f.Add([]byte{2, 0, 0, 0, 2, 1, 0x81})
	// x0, then ¬x0 under the assumption ¬x0: UNSAT.
	f.Add([]byte{1, 1, 0x80, 2, 0, 0, 2, 0x80, 0x80})
	// x0⊕x1⊕x2⊕x3 = 0 and x2 = 1, then x4⊕x0 = 0 and ¬x1 under the
	// assumptions x1, ¬x3: UNSAT on the assumption x1.
	f.Add([]byte{5, 2, 1, 0x83, 7, 0, 1, 2, 3, 9, 2, 3, 4, 6, 0x80, 0x81, 0x82})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		data := make([]byte, 8+rng.Intn(80))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeFuzzProblem(data)
		checkFuzzProblem(t, p, false)
		checkFuzzProblem(t, p, true)
		checkResetSearch(t, p, decodeFuzzProblem(data[len(data)/2:]))
	})
}
