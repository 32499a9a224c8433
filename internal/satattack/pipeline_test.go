package satattack

import (
	"context"
	"math/rand"
	"testing"

	"dynunlock/internal/netlist"
	"dynunlock/internal/sim"
)

// Level-0 inprocessing runs after every DIP, so on a sequential attack the
// simplify counter equals the DIP count: a miss means the pipeline skipped
// it, an extra call means something else ran it.
func TestSimplifyCountersAccount(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	var sawCalls bool
	for trial := 0; trial < 6 && !sawCalls; trial++ {
		orig, locked, _ := lockedPair(rng, 6, 60, 6)
		l := mustLock(t, locked, func(i int, s netlist.SignalID) bool {
			return len(locked.N.SignalName(s)) > 0 && locked.N.SignalName(s)[0] == 'k'
		})
		res, err := RunCtx(context.Background(), l, &simOracle{c: sim.NewComb(orig)}, Options{EnumerateLimit: 64})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations > 0 {
			if got := res.SolverStats.SimplifyCalls; got != uint64(res.Iterations) {
				t.Fatalf("trial %d: %d DIPs but %d simplify calls", trial, res.Iterations, got)
			}
			sawCalls = true
		}
	}
	if !sawCalls {
		t.Skip("no trial needed a DIP; simplify never had a chance to run")
	}
}
