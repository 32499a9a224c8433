package lock

import (
	"fmt"
	"strings"
	"testing"

	"dynunlock/internal/bench"
	"dynunlock/internal/gf2"
	"dynunlock/internal/lfsr"
	"dynunlock/internal/scan"
)

func testCircuit(t *testing.T, ffs int) *Design {
	t.Helper()
	n, err := bench.Generate(bench.GenConfig{Name: "t", PIs: 4, POs: 2, FFs: ffs, Gates: 6 * ffs, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Lock(n, Config{KeyBits: 8, Policy: scan.PerCycle})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLockDefaults(t *testing.T) {
	d := testCircuit(t, 16)
	if len(d.Chain.Gates) != 8 {
		t.Fatalf("gates = %d, want KeyBits", len(d.Chain.Gates))
	}
	if d.Config.Poly.N != 8 {
		t.Fatalf("poly width = %d", d.Config.Poly.N)
	}
	if d.Chain.Length != 16 {
		t.Fatalf("chain length = %d", d.Chain.Length)
	}
	if d.Describe() == "" {
		t.Fatal("Describe empty")
	}
}

func TestLockErrors(t *testing.T) {
	n, _ := bench.Generate(bench.GenConfig{Name: "t", PIs: 2, POs: 1, FFs: 4, Gates: 16, Seed: 1})
	cases := []Config{
		{KeyBits: 0, Policy: scan.PerCycle},
		{KeyBits: -3, Policy: scan.Static},
		{KeyBits: 8, Policy: scan.PerCycle, Poly: lfsr.Poly{N: 7, Taps: []int{7, 1}}}, // width mismatch
		{KeyBits: 8, Policy: scan.PerCycle, Poly: lfsr.Poly{N: 8, Taps: []int{3, 1}}}, // invalid taps
	}
	for i, cfg := range cases {
		if _, err := Lock(n, cfg); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	// Too few flops.
	small, _ := bench.Generate(bench.GenConfig{Name: "t", PIs: 2, POs: 1, FFs: 2, Gates: 8, Seed: 1})
	_ = small
	one := bench.S208F()
	_ = one
}

func TestLockStaticNoPoly(t *testing.T) {
	n, _ := bench.Generate(bench.GenConfig{Name: "t", PIs: 2, POs: 1, FFs: 8, Gates: 32, Seed: 2})
	d, err := Lock(n, Config{KeyBits: 4, Policy: scan.Static})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.NewRegister(); err == nil {
		t.Fatal("static design must have no PRNG")
	}
}

func TestLockPerPatternPeriodDefault(t *testing.T) {
	n, _ := bench.Generate(bench.GenConfig{Name: "t", PIs: 2, POs: 1, FFs: 8, Gates: 32, Seed: 3})
	d, err := Lock(n, Config{KeyBits: 4, Policy: scan.PerPattern})
	if err != nil {
		t.Fatal(err)
	}
	if d.Config.Period != 1 {
		t.Fatalf("period = %d", d.Config.Period)
	}
}

// The design's symbolic key register — its policy's step count read off
// the schedule of its polynomial — must equal its concrete LFSR on every
// cycle.
func TestKeyRegisterAtMatchesLFSR(t *testing.T) {
	d := testCircuit(t, 12)
	reg, err := d.NewRegister()
	if err != nil {
		t.Fatal(err)
	}
	seed := gf2.Unit(8, 3)
	seed.Set(5, true)
	reg.Seed(seed)
	const cycles = 30
	sched, err := lfsr.Unroll(d.Config.Poly, d.Config.Policy.Steps(0, cycles-1, d.Config.Period))
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < cycles; cycle++ {
		steps := d.Config.Policy.Steps(0, cycle, d.Config.Period)
		for i := 0; i < d.Config.KeyBits; i++ {
			if sched.Row(steps, i).Dot(seed) != reg.View().Get(i) {
				t.Fatalf("cycle %d bit %d: symbolic register mismatch", cycle, i)
			}
		}
		reg.Step()
	}
}

func TestRandomPlacement(t *testing.T) {
	n, _ := bench.Generate(bench.GenConfig{Name: "t", PIs: 4, POs: 2, FFs: 32, Gates: 128, Seed: 4})
	d1, err := Lock(n, Config{KeyBits: 16, Policy: scan.PerCycle, PlacementSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Chain.Validate(16); err != nil {
		t.Fatal(err)
	}
	d2, _ := Lock(n, Config{KeyBits: 16, Policy: scan.PerCycle, PlacementSeed: 11})
	for i := range d1.Chain.Gates {
		if d1.Chain.Gates[i] != d2.Chain.Gates[i] {
			t.Fatal("placement not deterministic per seed")
		}
	}
	d3, _ := Lock(n, Config{KeyBits: 16, Policy: scan.PerCycle, PlacementSeed: 12})
	diff := false
	for i := range d1.Chain.Gates {
		if d1.Chain.Gates[i] != d3.Chain.Gates[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds gave identical placement")
	}
	// Links must be distinct when gates <= links.
	seen := map[int]bool{}
	for _, g := range d1.Chain.Gates {
		if seen[g.Link] {
			t.Fatal("duplicate link in random placement")
		}
		seen[g.Link] = true
	}
}

func TestLockMoreGatesThanLinks(t *testing.T) {
	n, _ := bench.Generate(bench.GenConfig{Name: "t", PIs: 2, POs: 1, FFs: 5, Gates: 20, Seed: 6})
	d, err := Lock(n, Config{KeyBits: 12, Policy: scan.PerCycle, PlacementSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Chain.Gates) != 12 {
		t.Fatalf("gates = %d", len(d.Chain.Gates))
	}
	if err := d.Chain.Validate(12); err != nil {
		t.Fatal(err)
	}
}

// TestLockBoundsKeyWidth pins the one bound on key width: Lock refuses
// any KeyBits or NumGates above MaxKeyBits, naming the bound, before it
// allocates a gate list or a polynomial for the requested width.
func TestLockBoundsKeyWidth(t *testing.T) {
	n, _ := bench.Generate(bench.GenConfig{Name: "t", PIs: 2, POs: 1, FFs: 8, Gates: 32, Seed: 6})
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"at the bound", Config{KeyBits: MaxKeyBits, Policy: scan.PerCycle}, true},
		{"one bit over", Config{KeyBits: MaxKeyBits + 1, Policy: scan.PerCycle}, false},
		{"two billion bits", Config{KeyBits: 2_000_000_000, Policy: scan.PerCycle}, false},
		{"two billion static bits", Config{KeyBits: 2_000_000_000, Policy: scan.Static}, false},
		{"too many gates", Config{KeyBits: 8, NumGates: MaxKeyBits + 1, Policy: scan.PerCycle}, false},
		{"two billion gates", Config{KeyBits: 8, NumGates: 2_000_000_000, Policy: scan.Static}, false},
	}
	for _, c := range cases {
		d, err := Lock(n, c.cfg)
		switch {
		case c.ok && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.ok && len(d.Chain.Gates) != c.cfg.KeyBits:
			t.Errorf("%s: %d gates, want %d", c.name, len(d.Chain.Gates), c.cfg.KeyBits)
		case !c.ok && err == nil:
			t.Errorf("%s: want an error", c.name)
		case !c.ok && !strings.Contains(err.Error(), fmt.Sprint(MaxKeyBits)):
			t.Errorf("%s: error %q does not name the bound %d", c.name, err, MaxKeyBits)
		}
	}
}

// TestLockRejectsCancellingGates: two gates on one (link, key bit) pair
// cancel, so a chain that repeats a pair is refused, and so is a gate
// count no placement can spread without a repeat. On 3 flops, 2 key bits
// and 4 gates, seed 1's link order would repeat {1 0} and {2 1}; the
// second gate of each pair moves to the other link.
func TestLockRejectsCancellingGates(t *testing.T) {
	repeating := scan.Chain{Length: 3, Gates: []scan.KeyGate{
		{Link: 1, KeyBit: 0}, {Link: 2, KeyBit: 1}, {Link: 1, KeyBit: 0}, {Link: 2, KeyBit: 1}}}
	if err := repeating.Validate(2); err == nil || !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("Validate accepted gates that cancel in pairs (err = %v)", err)
	}
	n, err := bench.Generate(bench.GenConfig{Name: "t", PIs: 2, POs: 1, FFs: 3, Gates: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{KeyBits: 2, NumGates: 4, Policy: scan.PerCycle, PlacementSeed: 1}
	d, err := Lock(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(d.Chain.Gates); got != "[{1 0} {2 1} {2 0} {1 1}]" {
		t.Fatalf("placement %s, want the pinned repeat-free one", got)
	}
	// 2 links × 2 key bits hold four gates; a fifth must repeat a pair.
	cfg.NumGates = 5
	if _, err := Lock(n, cfg); err == nil || !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("Lock accepted five gates on four pairs (err = %v)", err)
	}
}

// TestPlacementNeverRepeatsAPair sweeps 2–12 flops, 1–8 key bits and every
// gate count up to links × key bits through the spread placement (seed 0,
// as in Lock) and the random one for seeds 1–5: no (link, key bit) pair
// repeats.
func TestPlacementNeverRepeatsAPair(t *testing.T) {
	for ffs := 2; ffs <= 12; ffs++ {
		for keyBits := 1; keyBits <= 8; keyBits++ {
			for count := 1; count <= (ffs-1)*keyBits; count++ {
				for seed := int64(0); seed <= 5; seed++ {
					var gates []scan.KeyGate
					if seed == 0 {
						gates = scan.SpreadGates(ffs, count, keyBits)
					} else {
						gates = randomGates(ffs, count, keyBits, seed)
					}
					c := scan.Chain{Length: ffs, Gates: gates}
					if err := c.Validate(keyBits); err != nil || len(gates) != count {
						t.Fatalf("%d flops, %d key bits, %d gates, seed %d: %d gates placed, %v",
							ffs, keyBits, count, seed, len(gates), err)
					}
				}
			}
		}
	}
}
