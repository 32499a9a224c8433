package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dynunlock/internal/aig"
	"dynunlock/internal/bench"
	"dynunlock/internal/gf2"
	"dynunlock/internal/lock"
	"dynunlock/internal/netlist"
	"dynunlock/internal/oracle"
	"dynunlock/internal/scan"
	"dynunlock/internal/sim"
)

func lockedChip(t testing.TB, ffs, keyBits int, policy scan.Policy, circuitSeed, secretSeedSrc int64) (*lock.Design, *oracle.Chip) {
	t.Helper()
	n, err := bench.Generate(bench.GenConfig{Name: "t", PIs: 6, POs: 3, FFs: ffs, Gates: 8 * ffs, Seed: circuitSeed})
	if err != nil {
		t.Fatal(err)
	}
	d, err := lock.Lock(n, lock.Config{KeyBits: keyBits, Policy: policy, PlacementSeed: circuitSeed + 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(secretSeedSrc))
	seed := gf2.NewVec(keyBits)
	for i := 0; i < keyBits; i++ {
		if rng.Intn(2) == 1 {
			seed.Set(i, true)
		}
	}
	if seed.IsZero() {
		seed.Set(0, true)
	}
	authKey := make([]bool, keyBits)
	for i := range authKey {
		authKey[i] = rng.Intn(2) == 1
	}
	authKey[0] = true // never collides with the all-zero attacker test key
	chip, err := oracle.New(d, seed, authKey)
	if err != nil {
		t.Fatal(err)
	}
	return d, chip
}

// The combinational model must agree with the chip on random sessions for
// every seed value: simulate the model netlist with (pi, a, s) and compare
// to the chip session with that programmed seed.
func TestModelMatchesChip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, policy := range []scan.Policy{scan.Static, scan.PerPattern, scan.PerCycle} {
		for trial := 0; trial < 4; trial++ {
			ffs := 5 + rng.Intn(12)
			keyBits := 3 + rng.Intn(8)
			d, chip := lockedChip(t, ffs, keyBits, policy, rng.Int63n(1<<40)+1, rng.Int63n(1<<40)+1)
			model, err := BuildModel(d, 0)
			if err != nil {
				t.Fatal(err)
			}
			view, err := netlist.NewCombView(model.Netlist)
			if err != nil {
				t.Fatal(err)
			}
			simulator := sim.NewComb(view)
			seed := chip.SecretSeed()

			for q := 0; q < 5; q++ {
				scanIn := randBools(rng, ffs)
				pi := randBools(rng, 6)
				chip.Reset()
				scanOut, po := chip.Session(make([]bool, keyBits), scanIn, pi)

				in := make([]bool, len(view.Inputs))
				copy(in, pi)
				copy(in[6:], scanIn)
				copy(in[6+ffs:], seed.Bools())
				out := simulator.EvalBits(in)
				for i := range po {
					if out[i] != po[i] {
						t.Fatalf("%v ffs=%d k=%d: PO %d mismatch", policy, ffs, keyBits, i)
					}
				}
				for j := 0; j < ffs; j++ {
					if out[len(po)+j] != scanOut[j] {
						t.Fatalf("%v ffs=%d k=%d: scan-out %d mismatch", policy, ffs, keyBits, j)
					}
				}
			}
		}
	}
}

func randBools(rng *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Intn(2) == 1
	}
	return out
}

// End-to-end DynUnlock on small dynamic designs: the candidate set must be
// exact, contain the programmed secret seed, match the analytic 2^(k-rank)
// prediction, and verify against the chip.
func TestAttackRecoversSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, policy := range []scan.Policy{scan.PerCycle, scan.PerPattern, scan.Static} {
		for trial := 0; trial < 3; trial++ {
			ffs := 6 + rng.Intn(10)
			keyBits := 3 + rng.Intn(6)
			d, chip := lockedChip(t, ffs, keyBits, policy, rng.Int63n(1<<40)+1, rng.Int63n(1<<40)+1)
			res, err := Attack(chip, Options{EnumerateLimit: 1 << uint(keyBits)})
			if err != nil {
				t.Fatalf("%v trial %d: %v", policy, trial, err)
			}
			if !res.Converged {
				t.Fatalf("%v trial %d: not converged", policy, trial)
			}
			if !res.Exact {
				t.Fatalf("%v trial %d: enumeration not exact", policy, trial)
			}
			if !ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
				t.Fatalf("%v trial %d: secret seed not among %d candidates",
					policy, trial, len(res.SeedCandidates))
			}
			if !res.Verified {
				t.Fatalf("%v trial %d: probe verification failed", policy, trial)
			}
			if want := 1 << uint(res.PredictedLog2); len(res.SeedCandidates) != want {
				t.Fatalf("%v trial %d (ffs=%d k=%d): %d candidates, predicted %d (rank %d)",
					policy, trial, ffs, keyBits, len(res.SeedCandidates), want, res.Rank)
			}
			_ = d
		}
	}
}

// With more key bits than the chain can expose, the candidate class grows
// but must still contain the secret — the paper's s5378/s13207 situation.
func TestAttackRankDeficient(t *testing.T) {
	// 4 flops, 8 key bits: at most 2*4=8 mask rows, typically rank < 8.
	d, chip := lockedChip(t, 4, 8, scan.PerCycle, 5, 6)
	model, err := BuildModel(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if model.Rank() >= 8 {
		t.Skip("masks unexpectedly full rank; nothing to test")
	}
	res, err := Attack(chip, Options{EnumerateLimit: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SeedCandidates) < 2 {
		t.Fatalf("expected multiple candidates, got %d", len(res.SeedCandidates))
	}
	if !ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
		t.Fatal("secret missing from candidate class")
	}
	if !res.Exact || len(res.SeedCandidates) != 1<<uint(res.PredictedLog2) {
		t.Fatalf("candidates %d, predicted 2^%d", len(res.SeedCandidates), res.PredictedLog2)
	}
}

// A mid-size locked circuit must satisfy the analytic candidate-count
// prediction 2^(k - rank[A;B]) exactly.
func TestCandidatesMatchAnalyticPrediction(t *testing.T) {
	_, chip := lockedChip(t, 12, 6, scan.PerCycle, 31, 77)
	res, err := Attack(chip, Options{EnumerateLimit: 256})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Exact {
		t.Fatal("attack not exactly converged")
	}
	if got, want := len(res.SeedCandidates), 1<<uint(res.PredictedLog2); got != want {
		t.Fatalf("candidates = %d, predicted %d", got, want)
	}
	if !ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
		t.Fatal("secret seed not recovered")
	}
}

// Unlock must hand back working scan access: encode/decode through the
// recovered seed reproduces plain scan semantics.
func TestUnlockGrantsScanAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	d, chip := lockedChip(t, 9, 5, scan.PerCycle, 7, 8)
	res, err := Attack(chip, Options{EnumerateLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(d)
	if err != nil {
		t.Fatal(err)
	}
	encodeIn, decodeOut := v.Unlock(res.SeedCandidates[0])
	for trial := 0; trial < 10; trial++ {
		want := randBools(rng, 9) // state the attacker wants delivered
		pi := randBools(rng, 6)
		chip.Reset()
		rawOut, _ := chip.Session(make([]bool, 5), encodeIn(want), pi)
		got := decodeOut(rawOut)
		// Expected: capture of next-state from `want`.
		seq := sim.NewSeq(d.View)
		seq.SetState(want)
		seq.Step(pi)
		expected := seq.State()
		for j := range expected {
			if got[j] != expected[j] {
				t.Fatalf("trial %d: unlocked scan access wrong at flop %d", trial, j)
			}
		}
	}
}

// The SAT enumeration must equal the linear-algebra class exactly: every
// candidate differs from the secret by a nullspace vector of [A;B].
func TestCandidatesAreMaskNullspaceCoset(t *testing.T) {
	d, chip := lockedChip(t, 5, 7, scan.PerCycle, 9, 10)
	model, err := BuildModel(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Attack(chip, Options{EnumerateLimit: 512})
	if err != nil {
		t.Fatal(err)
	}
	stacked := gf2.VStack(model.A, model.B)
	secret := chip.SecretSeed()
	for _, c := range res.SeedCandidates {
		diff := c.XorInto(secret)
		if !stacked.MulVec(diff).IsZero() {
			t.Fatal("candidate not in the secret's mask coset")
		}
	}
}

func TestBuildModelErrors(t *testing.T) {
	d, _ := lockedChip(t, 6, 4, scan.PerCycle, 11, 12)
	if _, err := BuildModel(d, -1); err == nil {
		t.Fatal("want error for negative pattern index")
	}
}

func TestChipOracleDefaults(t *testing.T) {
	_, chip := lockedChip(t, 6, 4, scan.PerCycle, 13, 14)
	o := NewChipOracle(chip)
	if len(o.testKey) != 4 {
		t.Fatalf("default test key width %d", len(o.testKey))
	}
	in := make([]bool, 6+6)
	out := o.Query(in)
	if len(out) != 3+6 {
		t.Fatalf("oracle output width %d", len(out))
	}
	if o.Sessions != 1 {
		t.Fatal("session count")
	}
}

func TestContainsSeed(t *testing.T) {
	a, b := gf2.Unit(4, 1), gf2.Unit(4, 2)
	if !ContainsSeed([]gf2.Vec{a, b}, b) || ContainsSeed([]gf2.Vec{a}, b) {
		t.Fatal("ContainsSeed wrong")
	}
}

// The paper's Fig. 1/Fig. 4 walkthrough: s208f with 3 key bits after flops
// 1, 2, 5, attacked end to end.
func TestS208Walkthrough(t *testing.T) {
	n := bench.S208F()
	d, err := lock.Lock(n, lock.Config{KeyBits: 3, Policy: scan.PerCycle})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 1 placement: gates after flops 1, 2, 5.
	d.Chain.Gates = []scan.KeyGate{{Link: 1, KeyBit: 0}, {Link: 2, KeyBit: 1}, {Link: 5, KeyBit: 2}}
	seed := gf2.FromBools([]bool{true, false, true})
	chip, err := oracle.New(d, seed, []bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Attack(chip, Options{EnumerateLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Exact {
		t.Fatal("walkthrough did not converge exactly")
	}
	if !ContainsSeed(res.SeedCandidates, seed) {
		t.Fatal("walkthrough failed to recover the seed")
	}
}

// TestDesignCoreCompiledOnce checks that a design compiles its core once
// and that everything stepping it shares that graph safely: Core returns
// one graph on every call, also from eight goroutines at once; building a
// chip or a verifier allocates less than one compile of the core, so
// neither compiles it again; and two chips, run at once on two goroutines,
// each answer every session as the verifier predicts for its secret seed.
func TestDesignCoreCompiledOnce(t *testing.T) {
	n, err := bench.Generate(bench.GenConfig{Name: "core", PIs: 6, POs: 3, FFs: 12, Gates: 96, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	d, err := lock.Lock(n, lock.Config{KeyBits: 8, Policy: scan.PerCycle})
	if err != nil {
		t.Fatal(err)
	}
	var graphs [8]*aig.Graph
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := d.Core()
			if err != nil {
				t.Error(err)
			}
			graphs[i] = g
		}()
	}
	wg.Wait()
	g, err := d.Core()
	if err != nil || g == nil {
		t.Fatalf("Core: %v", err)
	}
	for i, gi := range graphs {
		if gi != g {
			t.Fatalf("goroutine %d got graph %p, a later call %p", i, gi, g)
		}
	}

	authKey := []bool{true, false, false, false, false, false, false, false}
	A, B, err := maskMatricesN(d, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	compile := allocBytes(func() { aig.FromCombView(d.View) })
	chip := allocBytes(func() { oracle.New(d, gf2.Unit(8, 0), authKey) })
	verifier := allocBytes(func() { newVerifier(d, A, B) })
	if chip >= compile || verifier >= compile {
		t.Fatalf("a chip allocates %d bytes and a verifier %d, one compile of the core %d: they compile it again",
			chip, verifier, compile)
	}
	var chips [2]*oracle.Chip
	for i := range chips {
		chips[i], err = oracle.New(d, gf2.Unit(8, i), authKey)
		if err != nil {
			t.Fatal(err)
		}
	}

	// The verifier is not safe for concurrent use; each goroutine builds
	// its own, on the same core.
	for i, c := range chips {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := NewVerifier(d)
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(int64(i)))
			testKey := make([]bool, 8)
			for s := 0; s < 20; s++ {
				scanIn := randBools(rng, d.Chain.Length)
				pi := randBools(rng, d.View.NumPI)
				c.Reset()
				gotOut, gotPO := c.Session(testKey, scanIn, pi)
				wantOut, wantPOs := v.sessionN(c.SecretSeed(), scanIn, [][]bool{pi})
				if !slices.Equal(gotOut, wantOut) || !slices.Equal(gotPO, wantPOs[0]) {
					t.Errorf("chip %d, session %d: the chip and the verifier disagree", i, s)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// allocBytes returns the fewest bytes that f allocated over three calls.
func allocBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
