package core

import (
	"context"
	"testing"

	"dynunlock/internal/bench"
	"dynunlock/internal/gf2"
	"dynunlock/internal/lock"
	"dynunlock/internal/oracle"
	"dynunlock/internal/scan"
	"dynunlock/internal/trace"
)

// The zero Options run the one attack pipeline: the miter is encoded from
// a shared AIG (the encode span counts its nodes), XOR gates become native
// solver rows (XOR propagation happens) and inprocessing runs between DIPs.
func TestZeroOptionsRunPipeline(t *testing.T) {
	n, err := bench.Table2[0].Scaled(16).Build(0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := lock.Lock(n, lock.Config{KeyBits: 16, Policy: scan.PerCycle})
	if err != nil {
		t.Fatal(err)
	}
	seed := gf2.NewVec(16)
	for _, i := range []int{0, 3, 4, 9, 13, 15} {
		seed.Set(i, true)
	}
	authKey := make([]bool, 16)
	authKey[0] = true
	chip, err := oracle.New(d, seed, authKey)
	if err != nil {
		t.Fatal(err)
	}
	c := trace.NewCollector()
	res, err := AttackCtx(trace.With(context.Background(), c), chip, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !ContainsSeed(res.SeedCandidates, seed) {
		t.Fatalf("attack failed: converged=%v candidates=%d", res.Converged, len(res.SeedCandidates))
	}
	if res.Iterations == 0 {
		t.Fatal("no DIP iterations; the pipeline was never exercised")
	}
	if res.SolverStats.XorPropagations == 0 {
		t.Errorf("no XOR-row propagations: XOR gates were not encoded as native rows (%+v)", res.SolverStats)
	}
	if res.SolverStats.SimplifyCalls == 0 {
		t.Errorf("%d DIPs but no inprocessing calls", res.Iterations)
	}
	var aigNodes uint64
	for _, sp := range c.Spans() {
		if sp.Name == "encode" {
			aigNodes += sp.Counters["aig_nodes"]
		}
	}
	if aigNodes == 0 {
		t.Error("no encode span with aig_nodes > 0: copies were not encoded from an AIG")
	}
}
