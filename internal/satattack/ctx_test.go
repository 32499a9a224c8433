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
	l := mustLock(t, locked, func(i int, s netlist.SignalID) bool {
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
	l, oracle := testLocked(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co := &cancellingOracle{inner: oracle, after: 1, cancel: cancel}
	res, err := RunCtx(ctx, l, co, Options{EnumerateLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.StopReason != StopCancelled {
		t.Fatalf("stopped=%v reason=%q", res.Stopped, res.StopReason)
	}
	if res.Converged || res.Key != nil {
		t.Fatal("cancelled run must not report a key")
	}
	if res.Iterations < 1 || res.Queries != res.Iterations {
		t.Fatalf("iterations=%d queries=%d", res.Iterations, res.Queries)
	}
	// A fresh context completes the same attack: nothing was corrupted.
	full, err := RunCtx(context.Background(), l, oracle, Options{EnumerateLimit: 64})
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !full.Converged || !full.CandidatesExact {
		t.Fatalf("rerun: converged=%v exact=%v", full.Converged, full.CandidatesExact)
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
	l, oracle := testLocked(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCtx(ctx, l, oracle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.StopReason != StopCancelled || res.Iterations != 0 {
		t.Fatalf("stopped=%v reason=%q iters=%d", res.Stopped, res.StopReason, res.Iterations)
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

// Two runs under a background context with no sink must match bit for
// bit; the second usually takes the encoders the first returned to the
// role pools.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	l1, o1 := testLocked(t)
	l2, o2 := testLocked(t)
	a, err := RunCtx(context.Background(), l1, o1, Options{EnumerateLimit: 64})
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

// A trace sink must observe one span per engine stage with solver counters.
func TestRunCtxTraceSpans(t *testing.T) {
	l, oracle := testLocked(t)
	c := trace.NewCollector()
	ctx := trace.With(context.Background(), c)
	res, err := RunCtx(ctx, l, oracle, Options{EnumerateLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]trace.SpanRecord{}
	for _, sp := range c.Spans() {
		spans[sp.Name] = sp
	}
	for _, name := range []string{"encode", "dip_loop", "extract", "enumerate"} {
		if _, ok := spans[name]; !ok {
			t.Fatalf("missing span %q (have %v)", name, c.Spans())
		}
	}
	if spans["encode"].Counters["clauses"] == 0 {
		t.Fatal("encode span has no clause counter")
	}
	if spans["encode"].Counters["aig_nodes"] == 0 {
		t.Fatal("encode span has no aig_nodes counter")
	}
	if spans["dip_loop"].Counters["dips"] != uint64(res.Iterations) {
		t.Fatalf("dip counter %d != iterations %d", spans["dip_loop"].Counters["dips"], res.Iterations)
	}
	if spans["enumerate"].Counters["candidates"] != uint64(len(res.Candidates)) {
		t.Fatal("candidates counter mismatch")
	}
}
