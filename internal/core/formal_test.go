package core

import (
	"testing"

	"dynunlock/internal/equiv"
	"dynunlock/internal/netlist"
	"dynunlock/internal/scan"
)

// Formal counterpart of probe verification: every recovered seed candidate
// must be PROVEN equivalent to the secret seed on the combinational model
// (miter UNSAT), and a non-candidate seed must be distinguished.
func TestCandidatesFormallyEquivalent(t *testing.T) {
	d, chip := lockedChip(t, 6, 5, scan.PerCycle, 71, 72)
	model, err := BuildModel(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	view, err := netlist.NewCombView(model.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Attack(chip, Options{EnumerateLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("need the exact class for this test")
	}
	secret := chip.SecretSeed().Bools()
	for _, c := range res.SeedCandidates {
		r, err := equiv.CheckKeyed(view, model.Locked.KeyIdx, secret, c.Bools(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Equivalent {
			t.Fatalf("candidate %s not formally equivalent to the secret", c)
		}
	}
	// A seed outside the class must be distinguishable.
	outside := chip.SecretSeed().Clone()
	for i := 0; i < outside.Len(); i++ {
		flipped := outside.Clone()
		flipped.Flip(i)
		if ContainsSeed(res.SeedCandidates, flipped) {
			continue
		}
		r, err := equiv.CheckKeyed(view, model.Locked.KeyIdx, secret, flipped.Bools(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.Equivalent {
			t.Fatalf("non-candidate seed %s proven equivalent — class incomplete", flipped)
		}
		return // one negative case suffices
	}
	t.Skip("every single-bit flip landed inside the class")
}
