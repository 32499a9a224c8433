package satattack

import (
	"context"
	"math/rand"
	"testing"

	"dynunlock/internal/metrics"
	"dynunlock/internal/netlist"
	"dynunlock/internal/sim"
)

func metricsFixture(t *testing.T) (*Locked, Oracle) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	orig, locked, _ := lockedPair(rng, 5, 40, 5)
	l := mustLock(t, locked, func(i int, s netlist.SignalID) bool {
		return len(locked.N.SignalName(s)) > 0 && locked.N.SignalName(s)[0] == 'k'
	})
	return l, &simOracle{c: sim.NewComb(orig)}
}

func sumOf(r *metrics.Registry, name string) float64 {
	v, _ := r.Sum(name)
	return v
}

func TestSequentialMetricsSeries(t *testing.T) {
	l, o := metricsFixture(t)
	r := metrics.NewRegistry()
	ctx := metrics.With(context.Background(), r)
	res, err := RunCtx(ctx, l, o, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if got := sumOf(r, metrics.MetricAttackDIPs); got != float64(res.Iterations) {
		t.Errorf("dips counter = %v, want %d", got, res.Iterations)
	}
	if got := sumOf(r, metrics.MetricAttackQueries); got != float64(res.Queries) {
		t.Errorf("queries counter = %v, want %d", got, res.Queries)
	}
	// The end-of-Solve hook flush makes the published solver counters equal
	// the engine's own totals exactly, not approximately.
	if got := sumOf(r, metrics.MetricSatConflicts); got != float64(res.SolverStats.Conflicts) {
		t.Errorf("conflicts counter = %v, want %d", got, res.SolverStats.Conflicts)
	}
	if got := sumOf(r, metrics.MetricSatPropagations); got != float64(res.SolverStats.Propagations) {
		t.Errorf("propagations counter = %v, want %d", got, res.SolverStats.Propagations)
	}
	// The attack series carry engine="sequential" and the solver series
	// instance="0", the labels dashboards and scrapes select on.
	if got := r.Counter(metrics.MetricAttackDIPs, "engine", "sequential").Value(); got != uint64(res.Iterations) {
		t.Errorf("engine=sequential dips = %v, want %d", got, res.Iterations)
	}
	if got := r.Counter(metrics.MetricSatConflicts, "instance", "0").Value(); got != res.SolverStats.Conflicts {
		t.Errorf("instance=0 conflicts = %v, want %d", got, res.SolverStats.Conflicts)
	}
	if res.Iterations > 0 && sumOf(r, metrics.MetricAttackDIPSolveSec) != float64(res.Iterations+1) {
		// One solve per DIP plus the final UNSAT call.
		t.Errorf("dip solve histogram count = %v, want %d",
			sumOf(r, metrics.MetricAttackDIPSolveSec), res.Iterations+1)
	}
}

// TestMetricsDoNotPerturbAttack is the attack-level face of the
// bit-identical guarantee: with and without a registry, the sequential
// engine takes the same path.
func TestMetricsDoNotPerturbAttack(t *testing.T) {
	run := func(ctx context.Context) *Result {
		l, o := metricsFixture(t)
		res, err := RunCtx(ctx, l, o, Options{EnumerateLimit: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(context.Background())
	metered := run(metrics.With(context.Background(), metrics.NewRegistry()))
	if plain.SolverStats != metered.SolverStats {
		t.Fatalf("metrics perturbed the solver: %+v vs %+v", plain.SolverStats, metered.SolverStats)
	}
	if plain.Iterations != metered.Iterations || len(plain.Candidates) != len(metered.Candidates) {
		t.Fatalf("metrics perturbed the attack: %d/%d iters, %d/%d candidates",
			plain.Iterations, metered.Iterations, len(plain.Candidates), len(metered.Candidates))
	}
}
