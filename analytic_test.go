package dynunlock

import (
	"sort"
	"strings"
	"testing"

	"dynunlock/internal/core"
	"dynunlock/internal/gf2"
	"dynunlock/internal/insight"
	"dynunlock/internal/lock"
	"dynunlock/internal/netlist"
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

// affineBench is an XOR-only sequential core (mirrors the insight package's
// acceptance fixture): every response bit stays affine in the seed, so the
// tracker certifies all information each DIP reveals.
const affineBench = `
INPUT(p0)
INPUT(p1)
OUTPUT(o0)
OUTPUT(o1)
f0 = DFF(n0)
f1 = DFF(n1)
f2 = DFF(n2)
f3 = DFF(n3)
f4 = DFF(n4)
f5 = DFF(n5)
n0 = XOR(f1, p0)
n1 = XNOR(f2, f0)
n2 = XOR(f3, p1)
n3 = XOR(f4, f1)
n4 = NOT(f5)
n5 = XOR(f0, f2)
o0 = XOR(f0, f3)
o1 = XNOR(f2, f5)
`

// TestAnalyticShortCircuitAffineCore is the fast-path acceptance test: on a
// fully affine core the insight feedback loop reaches full key rank and the
// attack terminates analytically — the key drops out of GF(2)
// back-substitution with no further SAT iterations — in both the mask-space
// (linear) and seed-space (direct) formulations, recovering exactly the
// candidate set the SAT-only attack finds.
func TestAnalyticShortCircuitAffineCore(t *testing.T) {
	n, err := netlist.ParseBench(strings.NewReader(affineBench), "affine")
	if err != nil {
		t.Fatal(err)
	}
	// 4-bit key: rank[A;B] = 4 = k on this fixture, so the certified
	// constraints can pin the full seed and the direct-mode short-circuit
	// (which needs full seed rank, not just determined masks) can fire.
	design, err := lock.Lock(n, lock.Config{KeyBits: 4, Policy: PerCycle})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeLinear, ModeDirect} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			run := func(analytic bool) *core.Result {
				chip, err := Fabricate(design, 7)
				if err != nil {
					t.Fatal(err)
				}
				opts := core.Options{Mode: mode}
				if analytic {
					tk, err := insight.New(design, insight.Options{})
					if err != nil {
						t.Fatal(err)
					}
					opts.OnDIP = tk.DIPObserver()
					opts.Insight = tk
				}
				res, err := Unlock(chip, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !core.ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
					t.Fatalf("analytic=%v: secret seed not recovered", analytic)
				}
				return res
			}
			base, fast := run(false), run(true)
			if base.Analytic {
				t.Fatal("SAT-only run reported analytic")
			}
			if !fast.Analytic {
				t.Fatalf("affine core did not short-circuit analytically (iterations=%d)", fast.Iterations)
			}
			if !fast.Converged || !fast.Exact || !fast.Verified {
				t.Fatalf("analytic result flags: %+v", fast)
			}
			// Rank saturation ends the DIP loop: the analytic run never
			// needs more SAT iterations than the SAT-only reference.
			if fast.Iterations > base.Iterations {
				t.Fatalf("analytic run used more iterations (%d) than SAT-only (%d)",
					fast.Iterations, base.Iterations)
			}
			a, b := sortedSeedSet(base.SeedCandidates), sortedSeedSet(fast.SeedCandidates)
			if len(a) != len(b) {
				t.Fatalf("candidate count %d (sat) != %d (analytic)", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("candidate sets diverge at %d: %s != %s", i, a[i], b[i])
				}
			}
		})
	}
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
// 16, 8-bit key, seed base 100): on XOR-dominated hardware the GF(2)-native pipeline with the
// insight feedback loop must recover the candidate set pure CNF found with
// strictly fewer than half its conflicts, terminating analytically.
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
		tk, err := insight.New(design, insight.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Unlock(chip, core.Options{OnDIP: tk.DIPObserver(), Insight: tk})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Analytic {
			t.Fatalf("trial %d: affine core did not terminate analytically", trial)
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

// TestAnalyticExperimentConfig drives the facade path: Analytic on the
// experiment config arms the tracker without any telemetry sinks and the
// trial records the analytic outcome.
func TestAnalyticExperimentConfig(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Benchmark: "s5378",
		KeyBits:   8,
		Policy:    PerCycle,
		Scale:     16,
		Trials:    1,
		SeedBase:  11,
		Analytic:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSucceeded() {
		t.Fatalf("analytic experiment failed: %+v", res.Trials)
	}
}
