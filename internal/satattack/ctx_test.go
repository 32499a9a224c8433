package satattack

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"dynunlock/internal/netlist"
	"dynunlock/internal/sim"
	"dynunlock/internal/trace"
)

// testLocked builds the deterministic locked/original pair used by the
// cancellation tests: large enough for a few DIP iterations, small enough
// to finish instantly when unbounded.
func testLocked(t *testing.T) (*Locked, *simOracle) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	orig, locked, _ := lockedPair(rng, 6, 40, 5)
	l := NewLocked(locked, func(i int, s netlist.SignalID) bool {
		return locked.N.SignalName(s)[0] == 'k'
	})
	return l, &simOracle{c: sim.NewComb(orig)}
}

// cancellingOracle answers like the wrapped oracle and cancels the context
// after a fixed number of queries — a deterministic mid-DIP-loop
// cancellation, with no timing involved.
type cancellingOracle struct {
	inner  Oracle
	after  int
	cancel context.CancelFunc
	n      int
}

func (o *cancellingOracle) Query(in []bool) []bool {
	o.n++
	if o.n == o.after {
		o.cancel()
	}
	return o.inner.Query(in)
}

func TestRunCtxCancelMidDIPLoop(t *testing.T) {
	for _, pf := range []int{1, 2, 4} {
		l, oracle := testLocked(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		co := &cancellingOracle{inner: oracle, after: 1, cancel: cancel}
		res, err := RunCtx(ctx, l, co, Options{Portfolio: pf, EnumerateLimit: 64})
		if err != nil {
			t.Fatalf("portfolio %d: %v", pf, err)
		}
		if !res.Stopped || res.StopReason != StopCancelled {
			t.Fatalf("portfolio %d: stopped=%v reason=%q", pf, res.Stopped, res.StopReason)
		}
		if res.Converged || res.Key != nil {
			t.Fatalf("portfolio %d: cancelled run must not report a key", pf)
		}
		if res.Iterations < 1 || res.Queries != res.Iterations {
			t.Fatalf("portfolio %d: iterations=%d queries=%d", pf, res.Iterations, res.Queries)
		}
		if len(res.InstanceStats) != pf || len(res.InstanceWins) != pf {
			t.Fatalf("portfolio %d: instance slices %d/%d", pf,
				len(res.InstanceStats), len(res.InstanceWins))
		}
		// A fresh context completes the same attack: nothing was corrupted.
		full, err := RunCtx(context.Background(), l, oracle, Options{Portfolio: pf, EnumerateLimit: 64})
		if err != nil {
			t.Fatalf("portfolio %d rerun: %v", pf, err)
		}
		if !full.Converged || !full.CandidatesExact {
			t.Fatalf("portfolio %d rerun: converged=%v exact=%v", pf, full.Converged, full.CandidatesExact)
		}
	}
}

func TestRunCtxDeadline(t *testing.T) {
	l, oracle := testLocked(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	slow := OracleFunc(func(in []bool) []bool {
		time.Sleep(40 * time.Millisecond) // outlive the deadline inside the loop
		return oracle.Query(in)
	})
	start := time.Now()
	res, err := RunCtx(ctx, l, slow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.StopReason != StopDeadline {
		t.Fatalf("stopped=%v reason=%q", res.Stopped, res.StopReason)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("deadline stop took %v", el)
	}
}

func TestRunCtxPreCancelled(t *testing.T) {
	for _, pf := range []int{1, 2} {
		l, oracle := testLocked(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := RunCtx(ctx, l, oracle, Options{Portfolio: pf})
		if err != nil {
			t.Fatalf("portfolio %d: %v", pf, err)
		}
		if !res.Stopped || res.StopReason != StopCancelled || res.Iterations != 0 {
			t.Fatalf("portfolio %d: stopped=%v reason=%q iters=%d",
				pf, res.Stopped, res.StopReason, res.Iterations)
		}
	}
}

func TestRunCtxConflictBudget(t *testing.T) {
	for _, pf := range []int{1, 2, 4} {
		l, oracle := testLocked(t)
		res, err := RunCtx(context.Background(), l, oracle, Options{
			Portfolio:      pf,
			ConflictBudget: 1,
		})
		if err != nil {
			t.Fatalf("portfolio %d: %v", pf, err)
		}
		// The convergence proof (miter UNSAT) cannot complete within one
		// conflict on this circuit, so the budget must fire somewhere.
		if !res.Stopped || res.StopReason != StopBudget {
			t.Fatalf("portfolio %d: stopped=%v reason=%q conflicts=%d",
				pf, res.Stopped, res.StopReason, res.SolverStats.Conflicts)
		}
	}
}

func TestRunCtxMaxIterationsStillExtracts(t *testing.T) {
	l, oracle := testLocked(t)
	res, err := RunCtx(context.Background(), l, oracle, Options{MaxIterations: 1, EnumerateLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.StopReason != StopIterations {
		t.Fatalf("stopped=%v reason=%q", res.Stopped, res.StopReason)
	}
	if res.Key == nil || len(res.Candidates) == 0 {
		t.Fatal("iteration-bounded run must still extract and enumerate")
	}
	if res.Converged {
		t.Fatal("one iteration cannot have converged on this circuit")
	}
}

// Background context with no sink must reproduce Run bit for bit — the
// acceptance criterion for the refactor.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	l1, o1 := testLocked(t)
	l2, o2 := testLocked(t)
	a, err := Run(l1, o1, Options{EnumerateLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(context.Background(), l2, o2, Options{EnumerateLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations != b.Iterations || a.Queries != b.Queries {
		t.Fatalf("iterations %d/%d queries %d/%d", a.Iterations, b.Iterations, a.Queries, b.Queries)
	}
	if a.SolverStats != b.SolverStats {
		t.Fatalf("stats diverge:\n%+v\n%+v", a.SolverStats, b.SolverStats)
	}
	if len(a.Candidates) != len(b.Candidates) {
		t.Fatalf("candidates %d/%d", len(a.Candidates), len(b.Candidates))
	}
	for i := range a.Candidates {
		for j := range a.Candidates[i] {
			if a.Candidates[i][j] != b.Candidates[i][j] {
				t.Fatalf("candidate %d bit %d differs", i, j)
			}
		}
	}
}

// A trace sink must observe one span per engine stage with solver counters,
// for one instance and for a race of two.
func TestRunCtxTraceSpans(t *testing.T) {
	for _, pf := range []int{1, 2} {
		l, oracle := testLocked(t)
		c := trace.NewCollector()
		ctx := trace.With(context.Background(), c)
		res, err := RunCtx(ctx, l, oracle, Options{Portfolio: pf, EnumerateLimit: 64})
		if err != nil {
			t.Fatalf("portfolio %d: %v", pf, err)
		}
		spans := map[string]trace.SpanRecord{}
		for _, sp := range c.Spans() {
			spans[sp.Name] = sp
		}
		for _, name := range []string{"encode", "dip_loop", "extract", "enumerate"} {
			if _, ok := spans[name]; !ok {
				t.Fatalf("portfolio %d: missing span %q (have %v)", pf, name, c.Spans())
			}
		}
		if spans["encode"].Counters["clauses"] == 0 {
			t.Fatalf("portfolio %d: encode span has no clause counter", pf)
		}
		if spans["dip_loop"].Counters["dips"] != uint64(res.Iterations) {
			t.Fatalf("portfolio %d: dip counter %d != iterations %d",
				pf, spans["dip_loop"].Counters["dips"], res.Iterations)
		}
		if spans["enumerate"].Counters["candidates"] != uint64(len(res.Candidates)) {
			t.Fatalf("portfolio %d: candidates counter mismatch", pf)
		}
	}
}
