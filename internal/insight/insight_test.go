package insight

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"dynunlock/internal/core"
	"dynunlock/internal/gf2"
	"dynunlock/internal/lock"
	"dynunlock/internal/metrics"
	"dynunlock/internal/netlist"
	"dynunlock/internal/oracle"
	"dynunlock/internal/sat"
	"dynunlock/internal/scan"
)

// xorBench is an XOR-only sequential core: every gate preserves affine
// seed dependence, so the tracker certifies *all* information each DIP
// reveals and its 2^(k−rank) bound must match brute force exactly.
const xorBench = `
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

// nonlinBench mixes in AND/OR/MUX so some response bits go nonlinear in
// the seed: the tracker must stay sound (never overcount rank) while
// still certifying the affine slice.
const nonlinBench = `
INPUT(p0)
OUTPUT(o0)
f0 = DFF(n0)
f1 = DFF(n1)
f2 = DFF(n2)
f3 = DFF(n3)
n0 = AND(f1, f2)
n1 = XOR(f2, p0)
n2 = OR(f3, f0)
n3 = XOR(f0, f1)
o0 = MUX(f0, f1, f3)
`

func lockedDesign(t *testing.T, benchSrc string, keyBits int) *lock.Design {
	t.Helper()
	n, err := netlist.ParseBench(strings.NewReader(benchSrc), "insight-test")
	if err != nil {
		t.Fatal(err)
	}
	d, err := lock.Lock(n, lock.Config{KeyBits: keyBits, Policy: scan.PerCycle})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func fabricate(t *testing.T, d *lock.Design, rngSeed int64) *oracle.Chip {
	t.Helper()
	rng := rand.New(rand.NewSource(rngSeed))
	k := d.Config.KeyBits
	seed := gf2.NewVec(k)
	for i := 0; i < k; i++ {
		seed.Set(i, rng.Intn(2) == 1)
	}
	if seed.IsZero() {
		seed.Set(0, true)
	}
	authKey := make([]bool, k)
	for i := range authKey {
		authKey[i] = rng.Intn(2) == 1
	}
	chip, err := oracle.New(d, seed, authKey)
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

// bruteForceSurvivors counts the seeds in the full 2^k space whose
// closed-form session predictions match every recorded (dip, resp) pair.
func bruteForceSurvivors(t *testing.T, d *lock.Design, dips, resps [][]bool) int {
	t.Helper()
	v, err := core.NewVerifier(d)
	if err != nil {
		t.Fatal(err)
	}
	k := d.Config.KeyBits
	numPI := d.View.NumPI
	count := 0
	for s := 0; s < 1<<k; s++ {
		seed := gf2.NewVec(k)
		for b := 0; b < k; b++ {
			seed.Set(b, s>>b&1 == 1)
		}
		ok := true
		for i := range dips {
			pi, a := dips[i][:numPI], dips[i][numPI:]
			scanOut, po := v.Session(seed, a, pi)
			want := append(append([]bool(nil), po...), scanOut...)
			for j := range want {
				if want[j] != resps[i][j] {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			count++
		}
	}
	return count
}

// TestRankMatchesBruteForceXOROnly is the acceptance pin: on an affine
// core with a small (≤16-bit) LFSR, the tracker's 2^(k−rank) bound after
// every DIP equals brute-force seed enumeration exactly, and the final
// count equals the attack's enumerated candidate set.
func TestRankMatchesBruteForceXOROnly(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeLinear, core.ModeDirect} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			const k = 8
			d := lockedDesign(t, xorBench, k)
			chip := fabricate(t, d, 42)
			tracker, err := New(d, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Record the transcript alongside the tracker so every prefix
			// can be brute-forced (the OnDIP slices are only valid for the
			// duration of the call — copy them).
			var dips, resps [][]bool
			var hist []Snapshot
			res, err := core.Attack(chip, core.Options{
				Mode:           mode,
				EnumerateLimit: 1 << (k + 1),
				OnDIP: func(_ int, dip, resp []bool, _ sat.Stats, _ time.Duration) {
					dip = append([]bool(nil), dip...)
					resp = append([]bool(nil), resp...)
					dips = append(dips, dip)
					resps = append(resps, resp)
					hist = append(hist, tracker.Observe(dip, resp))
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged || !res.Exact {
				t.Fatalf("attack did not converge exactly: converged=%v exact=%v", res.Converged, res.Exact)
			}

			if len(hist) != len(dips) || len(hist) != res.Iterations {
				t.Fatalf("tracker saw %d DIPs, transcript %d, attack %d", len(hist), len(dips), res.Iterations)
			}
			// Exactness at every iteration: 2^(k−rank) after DIPs 1..i
			// equals brute force over the full seed space.
			for i := range hist {
				brute := bruteForceSurvivors(t, d, dips[:i+1], resps[:i+1])
				if bound := 1 << hist[i].SeedsLog2; bound != brute {
					t.Fatalf("after DIP %d: certified 2^%d = %d, brute force %d",
						i+1, hist[i].SeedsLog2, bound, brute)
				}
			}
			snap := tracker.Snapshot()
			if snap.Inconsistent {
				t.Fatal("tracker went inconsistent on faithful oracle data")
			}
			if snap.Skipped != 0 {
				t.Fatalf("affine core must certify every bit, skipped %d", snap.Skipped)
			}
			// Final count equals the attack's enumerated candidate set.
			if want := 1 << snap.SeedsLog2; len(res.SeedCandidates) != want {
				t.Fatalf("attack enumerated %d candidates, tracker certifies 2^%d = %d",
					len(res.SeedCandidates), snap.SeedsLog2, want)
			}
			if !core.ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
				t.Fatal("candidate set lost the programmed secret")
			}
			if snap.ETA != 0 && snap.Rank == snap.TargetRank {
				t.Fatalf("ETA should be 0 at target rank, got %v", snap.ETA)
			}
		})
	}
}

// TestObserveConcurrentOrderIndependent covers concurrent delivery:
// Observe calls from several goroutines must be race-free and the final
// rank must not depend on arrival order.
func TestObserveConcurrentOrderIndependent(t *testing.T) {
	const k = 10
	d := lockedDesign(t, xorBench, k)
	chip := fabricate(t, d, 7)
	adapter := core.NewChipOracle(chip)
	numPI := d.View.NumPI
	n := d.Chain.Length
	rng := rand.New(rand.NewSource(11))
	var dips, resps [][]bool
	for i := 0; i < 24; i++ {
		dip := make([]bool, numPI+n)
		for j := range dip {
			dip[j] = rng.Intn(2) == 1
		}
		dips = append(dips, dip)
		resps = append(resps, adapter.Query(dip))
	}

	ref := -1
	for round := 0; round < 6; round++ {
		tracker, err := New(d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		order := rng.Perm(len(dips))
		var wg sync.WaitGroup
		for _, i := range order {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				tracker.Observe(dips[i], resps[i])
			}()
		}
		wg.Wait()
		snap := tracker.Snapshot()
		if snap.Inconsistent {
			t.Fatal("tracker went inconsistent on faithful oracle data")
		}
		if snap.DIPs != len(dips) {
			t.Fatalf("round %d: observed %d DIPs, want %d", round, snap.DIPs, len(dips))
		}
		if ref < 0 {
			ref = snap.Rank
		} else if snap.Rank != ref {
			t.Fatalf("round %d: rank %d, want order-independent %d", round, snap.Rank, ref)
		}
	}
	if ref <= 0 {
		t.Fatal("expected a positive final rank")
	}
}

// TestSoundOnNonlinearCore: on a core with AND/OR/MUX gates the tracker
// may under-certify but must never overcount: its surviving-seed bound
// is always ≥ the brute-force survivor count, rank never exceeds the
// target, and it stays consistent.
func TestSoundOnNonlinearCore(t *testing.T) {
	const k = 8
	d := lockedDesign(t, nonlinBench, k)
	chip := fabricate(t, d, 13)
	adapter := core.NewChipOracle(chip)
	tracker, err := New(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	numPI := d.View.NumPI
	n := d.Chain.Length
	rng := rand.New(rand.NewSource(3))
	var dips, resps [][]bool
	for i := 0; i < 12; i++ {
		dip := make([]bool, numPI+n)
		for j := range dip {
			dip[j] = rng.Intn(2) == 1
		}
		resp := adapter.Query(dip)
		dips = append(dips, dip)
		resps = append(resps, resp)
		tracker.Observe(dip, resp)

		snap := tracker.Snapshot()
		if snap.Inconsistent {
			t.Fatal("tracker went inconsistent on faithful oracle data")
		}
		if snap.Rank > snap.TargetRank {
			t.Fatalf("rank %d exceeds target %d", snap.Rank, snap.TargetRank)
		}
		brute := bruteForceSurvivors(t, d, dips, resps)
		if bound := 1 << snap.SeedsLog2; bound < brute {
			t.Fatalf("after %d DIPs: certified bound 2^%d = %d < brute-force %d (unsound)",
				len(dips), snap.SeedsLog2, bound, brute)
		}
	}
}

// TestTrackerPublishes checks the metrics gauges and the snapshot each
// Observe returns.
func TestTrackerPublishes(t *testing.T) {
	const k = 8
	d := lockedDesign(t, xorBench, k)
	chip := fabricate(t, d, 5)
	adapter := core.NewChipOracle(chip)

	reg := metrics.NewRegistry()
	fake := time.Unix(1000, 0)
	tracker, err := New(d, Options{
		Metrics: reg,
		Now: func() time.Time {
			fake = fake.Add(time.Second)
			return fake
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	numPI := d.View.NumPI
	n := d.Chain.Length
	rng := rand.New(rand.NewSource(21))
	var last Snapshot
	for i := 0; i < 8; i++ {
		dip := make([]bool, numPI+n)
		for j := range dip {
			dip[j] = rng.Intn(2) == 1
		}
		last = tracker.Observe(dip, adapter.Query(dip))
		if last.DIPs != i+1 {
			t.Fatalf("Observe %d returned a snapshot of %d DIPs", i+1, last.DIPs)
		}
	}
	snap := tracker.Snapshot()
	if last.Rank != snap.Rank || last.SeedsLog2 != snap.SeedsLog2 || last.TargetRank != snap.TargetRank {
		t.Fatalf("last Observe returned %+v, tracker reports %+v", last, snap)
	}
	if snap.Rank <= 0 {
		t.Fatal("no rank learned")
	}
	if v, ok := reg.Sum("dynunlock_insight_rank"); !ok || int(v) != snap.Rank {
		t.Fatalf("rank gauge = %v (ok=%v), want %d", v, ok, snap.Rank)
	}
	if v, ok := reg.Sum("dynunlock_insight_seeds_remaining_log2"); !ok || int(v) != snap.SeedsLog2 {
		t.Fatalf("seeds gauge = %v (ok=%v), want %d", v, ok, snap.SeedsLog2)
	}
	if v, ok := reg.Sum("dynunlock_insight_rank_target"); !ok || int(v) != snap.TargetRank {
		t.Fatalf("target gauge = %v (ok=%v), want %d", v, ok, snap.TargetRank)
	}
	if v, ok := reg.Sum("dynunlock_insight_bits_learned_total"); !ok || int(v) != snap.Rank {
		t.Fatalf("bits counter = %v (ok=%v), want %d", v, ok, snap.Rank)
	}
	if snap.Rank < snap.TargetRank {
		if _, ok := reg.Sum("dynunlock_insight_eta_seconds"); !ok {
			t.Fatal("eta gauge missing despite learned rank")
		}
	}
}
