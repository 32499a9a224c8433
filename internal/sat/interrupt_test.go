package sat

import (
	"testing"
	"time"

	"dynunlock/internal/cnf"
)

// addPigeonhole encodes PHP(n+1, n) — n+1 pigeons, n holes, UNSAT.
func addPigeonhole(s *Solver, n int) {
	p := make([][]int, n+1)
	for i := range p {
		p[i] = make([]int, n)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i <= n; i++ {
		c := make([]cnf.Lit, n)
		for j := 0; j < n; j++ {
			c[j] = lit(p[i][j], false)
		}
		s.AddClause(c...)
	}
	for j := 0; j < n; j++ {
		for i1 := 0; i1 <= n; i1++ {
			for i2 := i1 + 1; i2 <= n; i2++ {
				s.AddClause(lit(p[i1][j], true), lit(p[i2][j], true))
			}
		}
	}
}

// A pending interrupt makes Solve return Unknown at once; clearing it
// resumes normal solving.
func TestInterruptPending(t *testing.T) {
	s := New()
	addPigeonhole(s, 4)
	s.interrupt.Store(true)
	if st := s.Solve(); st != Unknown {
		t.Fatalf("interrupted Solve = %v, want UNKNOWN", st)
	}
	s.interrupt.Store(false)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("resumed Solve = %v, want UNSAT", st)
	}
}

// Interrupting a running Solve from another goroutine must make it return
// Unknown promptly, leaving the solver reusable.
func TestInterruptConcurrent(t *testing.T) {
	s := New()
	addPigeonhole(s, 11) // far beyond what CDCL finishes in milliseconds
	done := make(chan Status, 1)
	go func() { done <- s.Solve() }()
	time.Sleep(20 * time.Millisecond)
	s.interrupt.Store(true)
	select {
	case st := <-done:
		if st != Unknown {
			t.Fatalf("Solve = %v, want UNKNOWN after interrupt", st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Solve did not return after the interrupt")
	}
	// The solver must remain consistent: it can keep searching the same hard
	// instance afterwards. Proving PHP(12,11) UNSAT outright is far beyond a
	// plain CDCL solver, so bound the check with a conflict budget — any
	// clean return (including budget-exhausted Unknown) demonstrates the
	// interrupted state was fully unwound.
	s.interrupt.Store(false)
	before := s.Stats.Conflicts
	s.ConflictBudget = int64(before) + 2000
	v := s.NewVar()
	s.AddClause(lit(v, false))
	if st := s.Solve(lit(v, false)); st == Sat {
		t.Fatal("post-interrupt Solve = SAT on an UNSAT instance")
	}
	if s.Stats.Conflicts <= before {
		t.Fatal("post-interrupt Solve did not resume searching")
	}
}
