package sat

import (
	"context"
	"testing"
	"time"

	"dynunlock/internal/cnf"
)

// pigeonhole encodes PHP(n+1, n) — n+1 pigeons into n holes — a classic
// UNSAT family with exponential resolution proofs: large enough n runs far
// longer than any test timeout, which makes it the cancellation workload.
func pigeonhole(s *Solver, n int) {
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

func TestSolveCtxBackgroundMatchesSolve(t *testing.T) {
	build := func() *Solver {
		s := New()
		pigeonhole(s, 5)
		return s
	}
	a, b := build(), build()
	stA := a.Solve()
	stB := b.SolveCtx(context.Background())
	if stA != stB {
		t.Fatalf("Solve=%v SolveCtx=%v", stA, stB)
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverge: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestSolveCtxCancelMidSolve(t *testing.T) {
	s := New()
	pigeonhole(s, 10)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	st := s.SolveCtx(ctx)
	if st != Unknown {
		t.Fatalf("cancelled solve returned %v", st)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancellation took %v", el)
	}
	if s.interrupt.Load() {
		t.Fatal("interrupt not re-armed after ctx cancellation")
	}
	if !s.ok {
		t.Fatal("solver inconsistent after cancellation")
	}
	// The solver must remain usable: a budgeted re-solve runs normally.
	before := s.Stats.Conflicts
	s.ConflictBudget = int64(before) + 50
	if st := s.SolveCtx(context.Background()); st != Unknown {
		t.Fatalf("budgeted re-solve returned %v", st)
	}
	if s.Stats.Conflicts <= before {
		t.Fatal("re-solve did no work")
	}
}

func TestSolveCtxDeadline(t *testing.T) {
	s := New()
	pigeonhole(s, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if st := s.SolveCtx(ctx); st != Unknown {
		t.Fatalf("deadline solve returned %v", st)
	}
	if ctx.Err() != context.DeadlineExceeded {
		t.Fatalf("ctx err = %v", ctx.Err())
	}
}

func TestSolveCtxPreCancelled(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(lit(a, false), lit(b, false))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if st := s.SolveCtx(ctx); st != Unknown {
		t.Fatalf("pre-cancelled solve returned %v", st)
	}
	// Fresh context: the same solver completes the solve.
	if st := s.SolveCtx(context.Background()); st != Sat {
		t.Fatal("solver unusable after pre-cancelled call")
	}
}
