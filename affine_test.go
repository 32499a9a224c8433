package dynunlock

import (
	"sort"
	"testing"

	"dynunlock/internal/core"
	"dynunlock/internal/gf2"
)

// sortedSeedSet renders a candidate set as sorted bit strings so two
// enumerations compare as sets, independent of discovery order.
func sortedSeedSet(seeds []gf2.Vec) []string {
	out := make([]string, len(seeds))
	for i, s := range seeds {
		out[i] = s.String()
	}
	sort.Strings(out)
	return out
}

// The pure-CNF encode path is retired; its recorded cost on the affine
// reference core stays as the crossover baseline. The format-v2 bundle
// bench/bundles/affine_cnf (scale 16, 8-bit key, seed base 100, removed
// when every bundle was re-recorded at format v5) needed 1214 conflicts in
// each of its two trials and enumerated exactly the secret seed.
const cnfAffineConflicts = 1214

var cnfAffineCandidates = [2]string{"10101111", "10001100"}

// TestAffineCrossover pins the headline perf claim at the configuration of
// the committed bench/bundles/affine bundle (affine reference core, scale
// 16, 8-bit key, seed base 100): on XOR-dominated hardware the GF(2)-native
// pipeline must recover the candidate set pure CNF found with strictly
// fewer than half its conflicts, its one-copy check closing the loop on
// the unique consistent key.
func TestAffineCrossover(t *testing.T) {
	design, err := LockBenchmark("affine", 8, PerCycle, 16)
	if err != nil {
		t.Fatal(err)
	}
	for trial, want := range cnfAffineCandidates {
		chip, err := Fabricate(design, int64(100)+int64(trial)*7919+1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Unlock(chip, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Closed != core.CloseUnique {
			t.Fatalf("trial %d: closed %q, want %q", trial, res.Closed, core.CloseUnique)
		}
		if x := res.SolverStats.Conflicts; x*2 >= cnfAffineConflicts {
			t.Fatalf("trial %d: GF(2)-native path did not halve conflicts: cnf=%d native=%d", trial, cnfAffineConflicts, x)
		}
		if got := sortedSeedSet(res.SeedCandidates); len(got) != 1 || got[0] != want {
			t.Fatalf("trial %d: candidates %v, pure CNF found [%s]", trial, got, want)
		}
		t.Logf("trial %d: %d conflicts (pure CNF: %d)", trial, res.SolverStats.Conflicts, cnfAffineConflicts)
	}
}
