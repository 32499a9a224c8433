package sat

import (
	"fmt"
	"math/rand"
	"testing"

	"dynunlock/internal/cnf"
)

// TestCompactionKeepsSearch drives one solver through several reduceDB
// rounds and arena compactions, with Simplify, incremental AddClause and
// AddXor calls and solves under assumptions in between. Every model is
// checked against the formula, and the final counters are pinned to the
// values the pointer-based clause layout produced before the arena: moving
// clauses must not change a single decision.
func TestCompactionKeepsSearch(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(3))
	// A planted assignment keeps every added constraint satisfiable, so
	// each unassumed solve must find a model.
	hidden := make([]bool, n)
	for v := range hidden {
		hidden[v] = rng.Intn(2) == 0
	}
	var f cnf.Formula
	f.NumVars = n
	s := New()
	randLit := func() cnf.Lit { return lit(rng.Intn(n), rng.Intn(2) == 0) }
	addClause := func(k int) {
		c := make([]cnf.Lit, k)
		for i := range c {
			c[i] = randLit()
		}
		if c[0].Sign() == hidden[c[0].Var()] {
			c[0] = c[0].Not()
		}
		f.Add(c...)
		s.AddClause(c...)
	}
	addXor := func(k int) {
		x := make([]cnf.Lit, k)
		parity := false
		for i := range x {
			x[i] = randLit()
			if hidden[x[i].Var()] != x[i].Sign() {
				parity = !parity
			}
		}
		if !parity {
			x[0] = x[0].Not()
		}
		f.AddXor(x...)
		s.AddXor(x, true)
	}
	check := func(what string, st Status, assume []cnf.Lit) {
		t.Helper()
		switch st {
		case Sat:
			m := s.Model()
			if !f.Eval(m[:n]) {
				t.Fatalf("%s: model violates the formula", what)
			}
			for _, a := range assume {
				if m[a.Var()] == a.Sign() {
					t.Fatalf("%s: model violates assumption %v", what, a)
				}
			}
		case Unsat:
			if len(assume) == 0 {
				t.Fatalf("%s: planted formula reported UNSAT", what)
			}
		default:
			t.Fatalf("%s: %v", what, st)
		}
	}

	for i := 0; i < n*43/10; i++ {
		addClause(3)
	}
	for i := 0; i < n/8; i++ {
		addXor(4)
	}
	for round := 0; round < 4; round++ {
		check(fmt.Sprintf("round %d", round), s.Solve(), nil)
		assume := make([]cnf.Lit, 6)
		for i := range assume {
			assume[i] = randLit()
		}
		check(fmt.Sprintf("round %d under assumptions", round), s.Solve(assume...), assume)
		for i := 0; i < n/4; i++ {
			addClause(3)
		}
		addXor(3)
		v := rng.Intn(n)
		f.Add(lit(v, !hidden[v]))
		s.AddClause(lit(v, !hidden[v]))
		if !s.Simplify() {
			t.Fatalf("round %d: Simplify reported UNSAT", round)
		}
	}
	check("final", s.Solve(), nil)

	if s.compactions == 0 {
		t.Fatal("the workload never compacted the arena")
	}
	want := Stats{
		Decisions: 7728, Propagations: 296576, Conflicts: 5583, Restarts: 43,
		Learnt: 5583, Removed: 2748, XorPropagations: 34201, XorConflicts: 624,
		SimplifyCalls: 4, SimplifyRemoved: 120, SimplifyStrengthened: 377,
	}
	if s.Stats != want {
		t.Fatalf("search moved:\n got %+v\nwant %+v", s.Stats, want)
	}
}
