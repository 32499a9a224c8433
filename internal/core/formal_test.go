package core

import (
	"slices"
	"testing"

	"dynunlock/internal/encode"
	"dynunlock/internal/sat"
	"dynunlock/internal/satattack"
	"dynunlock/internal/scan"
)

// keyedEquivalent reports whether the locked graph computes the same
// function of its other inputs under key1 as under key2. It encodes the
// graph twice over shared free inputs, each copy's key inputs held at its
// key's constants, under a miter of the two output vectors: UNSAT proves
// them equal on every input.
func keyedEquivalent(l *satattack.Locked, key1, key2 []bool) bool {
	e := encode.New(sat.New())
	in1 := e.FreshVec(l.Graph.NumInputs())
	in2 := slices.Clone(in1)
	for ki, i := range l.KeyIdx {
		in1[i], in2[i] = e.Const(key1[ki]), e.Const(key2[ki])
	}
	act := e.Miter(e.EncodeAIG(l.Graph, in1), e.EncodeAIG(l.Graph, in2))
	return e.S.Solve(act) == sat.Unsat
}

// Formal counterpart of probe verification: every recovered seed candidate
// must be PROVEN equivalent to the secret seed on the combinational model
// (miter UNSAT), and a non-candidate seed must be distinguished.
func TestCandidatesFormallyEquivalent(t *testing.T) {
	d, chip := lockedChip(t, 6, 5, scan.PerCycle, 71, 72)
	model, err := BuildModel(d, 0)
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
		if !keyedEquivalent(model.Locked, secret, c.Bools()) {
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
		if keyedEquivalent(model.Locked, secret, flipped.Bools()) {
			t.Fatalf("non-candidate seed %s proven equivalent — class incomplete", flipped)
		}
		return // one negative case suffices
	}
	t.Skip("every single-bit flip landed inside the class")
}
