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
	if _, err := d.NewLFSR(); err == nil {
		t.Fatal("static design must have no LFSR")
	}
	m, err := d.KeyRegisterAt(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if gf2.Rank(m) != 4 {
		t.Fatal("static key register must be identity")
	}
	for i := 0; i < 4; i++ {
		if !m.Get(i, i) {
			t.Fatal("static key register must be identity")
		}
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

func TestKeyRegisterAtMatchesLFSR(t *testing.T) {
	d := testCircuit(t, 12)
	reg, err := d.NewLFSR()
	if err != nil {
		t.Fatal(err)
	}
	seed := gf2.Unit(8, 3)
	seed.Set(5, true)
	reg.Seed(seed)
	for cycle := 0; cycle < 30; cycle++ {
		m, err := d.KeyRegisterAt(0, cycle)
		if err != nil {
			t.Fatal(err)
		}
		if !m.MulVec(seed).Equal(reg.State()) {
			t.Fatalf("cycle %d: symbolic register mismatch", cycle)
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
