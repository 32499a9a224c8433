package oracle

import (
	"fmt"
	"math/rand"
	"testing"

	"dynunlock/internal/bench"
	"dynunlock/internal/gf2"
	"dynunlock/internal/lfsr"
	"dynunlock/internal/lock"
	"dynunlock/internal/netlist"
	"dynunlock/internal/scan"
	"dynunlock/internal/sim"
)

func lockedDesign(t testing.TB, ffs, keyBits int, policy scan.Policy, placement int64) *lock.Design {
	t.Helper()
	n, err := bench.Generate(bench.GenConfig{Name: "t", PIs: 5, POs: 3, FFs: ffs, Gates: 8 * ffs, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	d, err := lock.Lock(n, lock.Config{KeyBits: keyBits, Policy: policy, PlacementSeed: placement})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func randBools(rng *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Intn(2) == 1
	}
	return out
}

func randSeed(rng *rand.Rand, n int) gf2.Vec {
	v := gf2.NewVec(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i, true)
		}
	}
	if v.IsZero() {
		v.Set(rng.Intn(n), true)
	}
	return v
}

func TestNewChipValidation(t *testing.T) {
	d := lockedDesign(t, 8, 4, scan.PerCycle, 0)
	if _, err := New(d, gf2.NewVec(3), make([]bool, 4)); err == nil {
		t.Fatal("want seed width error")
	}
	if _, err := New(d, gf2.NewVec(4), make([]bool, 4)); err == nil {
		t.Fatal("want zero-seed error")
	}
	if _, err := New(d, gf2.Unit(4, 1), make([]bool, 3)); err == nil {
		t.Fatal("want auth key width error")
	}
	if _, err := New(d, gf2.Unit(4, 1), make([]bool, 4)); err != nil {
		t.Fatal(err)
	}
}

// With a matching test key the gates carry a known static key: a trusted
// tester can fully predict the scrambling. Verify against the closed-form
// static masks.
func TestSessionMatchingTestKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := lockedDesign(t, 10, 6, scan.PerCycle, 9)
	authKey := randBools(rng, 6)
	chip, err := New(d, randSeed(rng, 6), authKey)
	if err != nil {
		t.Fatal(err)
	}
	scanIn := randBools(rng, 10)
	pi := randBools(rng, 5)
	chip.Reset()
	scanOut, po := chip.Session(authKey, scanIn, pi)

	wantOut, wantPO := closedFormSession(t, d, scanIn, pi, func(cycle, bit int) bool {
		return authKey[bit] // static known key on every cycle
	})
	assertEq(t, scanOut, wantOut, "scanOut")
	assertEq(t, po, wantPO, "po")
}

// closedFormSession computes the expected session result using the scan
// package's mask terms and a caller-supplied key(cycle, bit) function —
// an independent derivation from the chip's cycle-by-cycle simulation.
func closedFormSession(t testing.TB, d *lock.Design, scanIn, pi []bool, key func(cycle, bit int) bool) (scanOut, po []bool) {
	t.Helper()
	n := d.Chain.Length
	aPrime := make([]bool, n)
	for j := 0; j < n; j++ {
		v := scanIn[j]
		for _, term := range d.Chain.AppendInMaskTerms(nil, j) {
			if key(term.Cycle, term.KeyBit) {
				v = !v
			}
		}
		aPrime[j] = v
	}
	seq := sim.NewSeq(d.View)
	seq.SetState(aPrime)
	po = seq.Step(pi)
	bPrime := seq.State()
	scanOut = make([]bool, n)
	for j := 0; j < n; j++ {
		v := bPrime[j]
		for _, term := range d.Chain.AppendOutMaskTerms(nil, j, 1) {
			if key(term.Cycle, term.KeyBit) {
				v = !v
			}
		}
		scanOut[j] = v
	}
	return scanOut, po
}

func assertEq(t testing.TB, got, want []bool, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: bit %d differs", what, i)
		}
	}
}

// The core cross-check: the cycle-accurate chip must match the closed-form
// mask algebra (Algorithm 1's a-a' and b'-b relations) for every policy,
// seed, and placement.
func TestSessionMatchesClosedFormAllPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, policy := range []scan.Policy{scan.Static, scan.PerPattern, scan.PerCycle} {
		for trial := 0; trial < 6; trial++ {
			ffs := 6 + rng.Intn(20)
			keyBits := 3 + rng.Intn(10)
			d := lockedDesign(t, ffs, keyBits, policy, rng.Int63()+1)
			seed := randSeed(rng, keyBits)
			chip, err := New(d, seed, randBools(rng, keyBits))
			if err != nil {
				t.Fatal(err)
			}

			// Key schedule per cycle from a reference LFSR (session 0 after
			// reset, so patIdx = 0).
			var states []gf2.Vec
			if policy == scan.Static {
				states = []gf2.Vec{seed}
			} else {
				ref, err := lfsr.New(d.Config.Poly)
				if err != nil {
					t.Fatal(err)
				}
				ref.Seed(seed)
				for c := 0; c <= d.Chain.SessionCyclesN(1); c++ {
					states = append(states, ref.View().Clone())
					ref.Step()
				}
			}
			key := func(cycle, bit int) bool {
				steps := policy.Steps(0, cycle, d.Config.Period)
				return states[steps].Get(bit)
			}

			scanIn := randBools(rng, ffs)
			pi := randBools(rng, 5)
			chip.Reset()
			// Any non-matching test key leaves the PRNG in control; with few
			// key bits a random guess can collide with SK, so force a miss.
			wrongKey := randBools(rng, keyBits)
			if constantTimeEqual(wrongKey, chip.authKey) {
				wrongKey[0] = !wrongKey[0]
			}
			scanOut, po := chip.Session(wrongKey, scanIn, pi)
			wantOut, wantPO := closedFormSession(t, d, scanIn, pi, key)
			assertEq(t, po, wantPO, "po")
			assertEq(t, scanOut, wantOut, "scanOut")
		}
	}
}

// Sessions must be reproducible across resets: the PRNG reloads the seed.
func TestResetReproducibility(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := lockedDesign(t, 12, 8, scan.PerCycle, 4)
	chip, err := New(d, randSeed(rng, 8), randBools(rng, 8))
	if err != nil {
		t.Fatal(err)
	}
	scanIn := randBools(rng, 12)
	pi := randBools(rng, 5)
	tk := randBools(rng, 8)
	chip.Reset()
	out1, po1 := chip.Session(tk, scanIn, pi)
	chip.Reset()
	out2, po2 := chip.Session(tk, scanIn, pi)
	assertEq(t, out1, out2, "scanOut")
	assertEq(t, po1, po2, "po")
}

// Without a reset, EFF-Dyn sessions continue the LFSR stream: the same
// query generally yields a different answer, which is exactly why the
// attack pulls the reset line between DIPs.
func TestNoResetChangesAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := lockedDesign(t, 12, 8, scan.PerCycle, 4)
	chip, err := New(d, randSeed(rng, 8), randBools(rng, 8))
	if err != nil {
		t.Fatal(err)
	}
	scanIn := randBools(rng, 12)
	pi := randBools(rng, 5)
	tk := randBools(rng, 8)
	chip.Reset()
	out1, _ := chip.Session(tk, scanIn, pi)
	out2, _ := chip.Session(tk, scanIn, pi)
	same := true
	for i := range out1 {
		if out1[i] != out2[i] {
			same = false
		}
	}
	if same {
		t.Log("warning: two consecutive sessions agreed; possible but unlikely")
	}
	// DOS policy with period 2: second pattern still uses the seed state,
	// third steps once.
	d2 := lockedDesign(t, 12, 8, scan.PerPattern, 4)
	d2.Config.Period = 2
	chip2, err := New(d2, gf2.Unit(8, 0), randBools(rng, 8))
	if err != nil {
		t.Fatal(err)
	}
	chip2.Reset()
	o1, _ := chip2.Session(tk, scanIn, pi)
	o2, _ := chip2.Session(tk, scanIn, pi)
	assertEq(t, o1, o2, "DOS patterns 0 and 1 (same key epoch)")
}

func TestUnobfuscatedChainIsTransparent(t *testing.T) {
	// A design whose key gates never fire (keyBits wide but zero gates)
	// must behave like a plain scan chain.
	n, err := bench.Generate(bench.GenConfig{Name: "t", PIs: 5, POs: 3, FFs: 9, Gates: 60, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	d, err := lock.Lock(n, lock.Config{KeyBits: 4, Policy: scan.PerCycle})
	if err != nil {
		t.Fatal(err)
	}
	d.Chain.Gates = nil
	rng := rand.New(rand.NewSource(5))
	chip, err := New(d, gf2.Unit(4, 2), randBools(rng, 4))
	if err != nil {
		t.Fatal(err)
	}
	scanIn := randBools(rng, 9)
	pi := randBools(rng, 5)
	chip.Reset()
	scanOut, po := chip.Session(randBools(rng, 4), scanIn, pi)

	seq := sim.NewSeq(d.View)
	seq.SetState(scanIn)
	wantPO := seq.Step(pi)
	assertEq(t, po, wantPO, "po")
	assertEq(t, scanOut, seq.State(), "scanOut")
}

func TestStatsAndPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := lockedDesign(t, 8, 4, scan.PerCycle, 2)
	chip, _ := New(d, gf2.Unit(4, 0), randBools(rng, 4))
	chip.Reset()
	chip.Session(randBools(rng, 4), randBools(rng, 8), randBools(rng, 5))
	if chip.Stats.Sessions != 1 || chip.Stats.Cycles == 0 || chip.Stats.Resets == 0 {
		t.Fatalf("stats %+v", chip.Stats)
	}
	if chip.Design() != d {
		t.Fatal("Design accessor broken")
	}
	if !chip.SecretSeed().Equal(gf2.Unit(4, 0)) {
		t.Fatal("SecretSeed wrong")
	}
	for _, fn := range []func(){
		func() { chip.Session(nil, randBools(rng, 7), randBools(rng, 5)) },
		func() { chip.Session(nil, randBools(rng, 8), randBools(rng, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			fn()
		}()
	}
}

// TestSessionHookCycleAccounting pins the contract the metrics layer
// builds on: across single- and multi-capture sessions, the cycle counts
// delivered to SessionHook sum exactly to the Stats.Cycles delta — no
// cycle is double-counted or missed, resets included.
func TestSessionHookCycleAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const ffs, keyBits = 10, 6
	d := lockedDesign(t, ffs, keyBits, scan.PerCycle, 5)
	chip, err := New(d, randSeed(rng, keyBits), randBools(rng, keyBits))
	if err != nil {
		t.Fatal(err)
	}
	var hookSessions int
	var hookCycles uint64
	chip.SessionHook = func(cycles uint64) {
		if cycles == 0 {
			t.Error("hook delivered a zero-cycle session")
		}
		hookSessions++
		hookCycles += cycles
	}

	tk := randBools(rng, keyBits)
	before := chip.Stats
	// Mixed workload: plain sessions and multi-capture sessions of varying
	// depth, with resets in between (reset cycles are not session cycles).
	for i, captures := range []int{1, 2, 5, 1, 3} {
		if i%2 == 0 {
			chip.Reset()
		}
		cyclesBefore := chip.Stats.Cycles
		hookBefore := hookCycles
		if captures == 1 {
			chip.Session(tk, randBools(rng, ffs), randBools(rng, 5))
		} else {
			pis := make([][]bool, captures)
			for j := range pis {
				pis[j] = randBools(rng, 5)
			}
			chip.SessionN(tk, randBools(rng, ffs), pis)
		}
		// Per-session: the hook argument is exactly this session's delta.
		if got, want := hookCycles-hookBefore, chip.Stats.Cycles-cyclesBefore; got != want {
			t.Fatalf("session %d (captures=%d): hook reported %d cycles, Stats delta %d",
				i, captures, got, want)
		}
	}
	if hookSessions != 5 || chip.Stats.Sessions-before.Sessions != 5 {
		t.Fatalf("hook fired %d times, Stats sessions %d, want 5 each",
			hookSessions, chip.Stats.Sessions-before.Sessions)
	}
	if hookCycles != chip.Stats.Cycles-before.Cycles {
		t.Fatalf("hook total %d cycles, Stats delta %d", hookCycles, chip.Stats.Cycles-before.Cycles)
	}
	// Deeper sessions shift more cycles: a 5-capture session costs more
	// than a single-capture one, and the hook must reflect that.
	if hookCycles <= 5*uint64(ffs) {
		t.Fatalf("implausibly few cycles %d for %d scan flops", hookCycles, ffs)
	}
}

// refChip is the per-bit chip the word-level one replaced, kept as its
// reference: the chain is a []bool walked link by link, the key register
// a []bool stepped one bit at a time (AND pairs included) and copied out
// on every cycle, and the capture runs on the gate-level stepper.
type refChip struct {
	d         *lock.Design
	seq       *sim.Seq
	seed, key []bool // the secret seed and SK
	reg       []bool // the key register (dynamic policies)
	steps     int
	cycle     int
	patterns  int
	flops     []bool
	linkBits  [][]int
}

func newRefChip(d *lock.Design, seed gf2.Vec, authKey []bool) *refChip {
	r := &refChip{d: d, seq: sim.NewSeq(d.View), seed: seed.Bools(), key: authKey,
		flops: make([]bool, d.Chain.Length), linkBits: make([][]int, d.Chain.Length)}
	for _, g := range d.Chain.Gates {
		r.linkBits[g.Link] = append(r.linkBits[g.Link], g.KeyBit)
	}
	r.reset()
	return r
}

func (r *refChip) reset() {
	clear(r.flops)
	r.reg = append([]bool(nil), r.seed...)
	r.steps, r.cycle, r.patterns = 0, 0, 0
}

func (r *refChip) keyRegister() []bool {
	cfg := r.d.Config
	if cfg.Policy == scan.Static {
		return append([]bool(nil), r.seed...)
	}
	for target := cfg.Policy.Steps(r.patterns, r.cycle, cfg.Period); r.steps < target; r.steps++ {
		fb := false
		for _, t := range cfg.Poly.Taps {
			fb = fb != r.reg[t-1]
		}
		for _, pr := range cfg.NonlinearPairs {
			fb = fb != (r.reg[pr[0]] && r.reg[pr[1]])
		}
		for i := len(r.reg) - 1; i > 0; i-- {
			r.reg[i] = r.reg[i-1]
		}
		r.reg[0] = fb
	}
	return append([]bool(nil), r.reg...)
}

func (r *refChip) shiftEdge(si bool, key []bool) {
	n := r.d.Chain.Length
	for j := n - 1; j >= 1; j-- {
		v := r.flops[j-1]
		for _, bit := range r.linkBits[j] {
			if key[bit] {
				v = !v
			}
		}
		r.flops[j] = v
	}
	r.flops[0] = si
}

func (r *refChip) sessionN(testKey, scanIn []bool, pis [][]bool) (scanOut []bool, pos [][]bool) {
	n := r.d.Chain.Length
	key := func() []bool {
		if constantTimeEqual(testKey, r.key) {
			return r.key
		}
		return r.keyRegister()
	}
	for t := 0; t < n; t++ {
		r.shiftEdge(scanIn[n-1-t], key())
		r.cycle++
	}
	r.seq.SetState(r.flops)
	for _, pi := range pis {
		pos = append(pos, r.seq.Step(pi))
		r.cycle++
	}
	copy(r.flops, r.seq.State())
	scanOut = make([]bool, n)
	for t := 0; t < n; t++ {
		scanOut[n-1-t] = r.flops[n-1]
		r.shiftEdge(false, key())
		r.cycle++
	}
	r.patterns++
	return scanOut, pos
}

// The word-level chip must answer every session exactly as the per-bit
// reference does: all three policies (PerPattern at period 2), an NLFSR
// register, matching and mismatching test keys, one to three captures,
// and sessions with and without a reset in between, so the register runs
// on across sessions and PerPattern epochs advance.
func TestSessionMatchesPerBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type variant struct {
		policy    scan.Policy
		nonlinear bool
	}
	for _, v := range []variant{{scan.Static, false}, {scan.PerPattern, false}, {scan.PerCycle, false},
		{scan.PerPattern, true}, {scan.PerCycle, true}} {
		for trial := 0; trial < 4; trial++ {
			ffs := 5 + rng.Intn(140)
			keyBits := 3 + rng.Intn(130)
			n, err := bench.Generate(bench.GenConfig{Name: "t", PIs: 4, POs: 3, FFs: ffs, Gates: 6 * ffs, Seed: rng.Int63()})
			if err != nil {
				t.Fatal(err)
			}
			cfg := lock.Config{KeyBits: keyBits, NumGates: 1 + rng.Intn(2*keyBits), Policy: v.policy,
				Period: 2, PlacementSeed: rng.Int63() + 1}
			if v.nonlinear {
				cfg.NonlinearPairs = [][2]int{{0, keyBits / 2}, {keyBits / 3, keyBits - 1}}
			}
			d, err := lock.Lock(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			seed := randSeed(rng, keyBits)
			authKey := randBools(rng, keyBits)
			chip, err := New(d, seed, authKey)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefChip(d, seed, authKey)
			for sess := 0; sess < 12; sess++ {
				if rng.Intn(2) == 0 {
					chip.Reset()
					ref.reset()
				}
				match := rng.Intn(3) == 0
				testKey := authKey
				if !match {
					testKey = randBools(rng, keyBits)
					testKey[0] = !authKey[0]
				}
				scanIn := randBools(rng, ffs)
				pis := make([][]bool, 1+rng.Intn(3))
				for c := range pis {
					pis[c] = randBools(rng, 4)
				}
				what := fmt.Sprintf("%v nonlinear=%v ffs=%d k=%d session %d (captures %d, match %v)",
					v.policy, v.nonlinear, ffs, keyBits, sess, len(pis), match)
				gotOut, gotPOs := chip.SessionN(testKey, scanIn, pis)
				wantOut, wantPOs := ref.sessionN(testKey, scanIn, pis)
				assertEq(t, gotOut, wantOut, what+": scanOut")
				for c := range wantPOs {
					assertEq(t, gotPOs[c], wantPOs[c], what+": po")
				}
			}
		}
	}
}

var _ = netlist.New // silence potential unused import in future edits
