package core

import (
	"strings"
	"testing"

	"dynunlock/internal/bench"
	"dynunlock/internal/gf2"
	"dynunlock/internal/lock"
	"dynunlock/internal/oracle"
	"dynunlock/internal/scan"
)

// The paper's Discussion section: defenses whose dynamic key comes from a
// nonlinear (crypto-style) generator are outside DynUnlock's reach because
// the key stream is not a GF(2)-linear function of the seed. The library
// must refuse to build the linear model rather than silently produce a
// wrong one.
func TestNonlinearDefenseRejected(t *testing.T) {
	n, err := bench.Generate(bench.GenConfig{Name: "nl", PIs: 4, POs: 2, FFs: 8, Gates: 64, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	d, err := lock.Lock(n, lock.Config{
		KeyBits:        6,
		Policy:         scan.PerCycle,
		NonlinearPairs: [][2]int{{0, 3}, {2, 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Nonlinear() {
		t.Fatal("design should report nonlinear")
	}
	chip, err := oracle.New(d, gf2.Unit(6, 1), []bool{true, false, false, false, false, false})
	if err != nil {
		t.Fatal(err)
	}
	// The chip itself works: sessions complete and are reproducible.
	scanIn := make([]bool, 8)
	pi := make([]bool, 4)
	chip.Reset()
	out1, _ := chip.Session(make([]bool, 6), scanIn, pi)
	chip.Reset()
	out2, _ := chip.Session(make([]bool, 6), scanIn, pi)
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatal("nonlinear chip not reproducible across resets")
		}
	}
	// But the attack must refuse with a clear diagnostic.
	if _, err := BuildModel(d, 0); err == nil || !strings.Contains(err.Error(), "nonlinear") {
		t.Fatalf("BuildModel error = %v, want nonlinear rejection", err)
	}
	if _, err := BuildMaskModel(d, 0, 1); err == nil {
		t.Fatal("BuildMaskModel must also refuse")
	}
	if _, err := Attack(chip, Options{}); err == nil {
		t.Fatal("Attack must refuse nonlinear designs")
	}
	if _, err := NewVerifier(d); err == nil {
		t.Fatal("NewVerifier must refuse nonlinear designs")
	}
}

// The nonlinear register genuinely changes the scrambling: the same chip
// configuration with and without AND pairs produces different scan-outs.
func TestNonlinearChangesObfuscation(t *testing.T) {
	n, err := bench.Generate(bench.GenConfig{Name: "nl2", PIs: 4, POs: 2, FFs: 8, Gates: 64, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(pairs [][2]int) []bool {
		d, err := lock.Lock(n, lock.Config{KeyBits: 6, Policy: scan.PerCycle, NonlinearPairs: pairs})
		if err != nil {
			t.Fatal(err)
		}
		seed := gf2.FromBools([]bool{true, true, false, true, false, true})
		chip, err := oracle.New(d, seed, []bool{true, false, false, false, false, false})
		if err != nil {
			t.Fatal(err)
		}
		chip.Reset()
		out, _ := chip.Session(make([]bool, 6), make([]bool, 8), make([]bool, 4))
		return out
	}
	linear := mk(nil)
	nonlinear := mk([][2]int{{1, 4}})
	same := true
	for i := range linear {
		if linear[i] != nonlinear[i] {
			same = false
		}
	}
	if same {
		t.Fatal("AND pair had no effect on the key stream")
	}
}
