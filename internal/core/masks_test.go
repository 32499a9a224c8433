package core

import (
	"fmt"
	"testing"

	"dynunlock/internal/bench"
	"dynunlock/internal/gf2"
	"dynunlock/internal/lock"
	"dynunlock/internal/scan"
)

// stateMatrixMasks is the construction maskMatricesN replaced, kept as its
// reference: step a symbolic copy of the whole register once per cycle,
// snapshot every state's k rows (the identity for Static), and XOR
// the key-bit row of the right snapshot for each mask term.
func stateMatrixMasks(d *lock.Design, patIdx, captures int) (A, B *gf2.Mat) {
	k := d.Config.KeyBits
	steps := func(cycle int) int { return d.Config.Policy.Steps(patIdx, cycle, d.Config.Period) }
	maxSteps := 0
	for cycle := 0; cycle <= d.Chain.SessionCyclesN(captures); cycle++ {
		maxSteps = max(maxSteps, steps(cycle))
	}
	states := make([][]gf2.Vec, maxSteps+1)
	rows := make([]gf2.Vec, k)
	for i := range rows {
		rows[i] = gf2.Unit(k, i)
	}
	for t := range states {
		for _, r := range rows {
			states[t] = append(states[t], r.Clone())
		}
		if d.Config.Policy == scan.Static {
			continue
		}
		fb := gf2.NewVec(k)
		for _, tap := range d.Config.Poly.Taps {
			fb.Xor(rows[tap-1])
		}
		copy(rows[1:], rows[:k-1])
		rows[0] = fb
	}
	row := func(terms []scan.Term) gf2.Vec {
		v := gf2.NewVec(k)
		for _, t := range terms {
			v.Xor(states[steps(t.Cycle)][t.KeyBit])
		}
		return v
	}
	n := d.Chain.Length
	A, B = gf2.NewMat(0, 0), gf2.NewMat(0, 0)
	for j := 0; j < n; j++ {
		A.AppendRow(row(d.Chain.AppendInMaskTerms(nil, j)))
		B.AppendRow(row(d.Chain.AppendOutMaskTerms(nil, j, captures)))
	}
	return A, B
}

// TestMaskMatricesMatchStateMatrices pins the one-unroll construction to
// the full-state reference for every policy (PerPattern at periods 1 and 3
// over several pattern indices), one to three captures, tabulated and
// fallback polynomials, and more gates than links.
func TestMaskMatricesMatchStateMatrices(t *testing.T) {
	type variant struct {
		policy scan.Policy
		period int
	}
	variants := []variant{{scan.Static, 0}, {scan.PerPattern, 1}, {scan.PerPattern, 3}, {scan.PerCycle, 0}}
	for ci, c := range []struct{ ffs, keyBits, gates int }{
		{6, 3, 0}, {12, 8, 0}, {20, 16, 0}, {9, 37, 0}, {30, 37, 45},
	} {
		n, err := bench.Generate(bench.GenConfig{Name: "t", PIs: 3, POs: 2, FFs: c.ffs, Gates: 6 * c.ffs, Seed: int64(40 + ci)})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			d, err := lock.Lock(n, lock.Config{KeyBits: c.keyBits, NumGates: c.gates, Policy: v.policy,
				Period: v.period, PlacementSeed: int64(ci + 1)})
			if err != nil {
				t.Fatal(err)
			}
			for patIdx := 0; patIdx < 7; patIdx++ {
				for captures := 1; captures <= 3; captures++ {
					name := fmt.Sprintf("ffs=%d k=%d %v p=%d pat=%d captures=%d",
						c.ffs, c.keyBits, v.policy, v.period, patIdx, captures)
					A, B, err := maskMatricesN(d, patIdx, captures)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					wantA, wantB := stateMatrixMasks(d, patIdx, captures)
					if A.String() != wantA.String() || B.String() != wantB.String() {
						t.Fatalf("%s: masks differ from the state-matrix reference\nA=\n%s\nwant\n%s\nB=\n%s\nwant\n%s",
							name, A, wantA, B, wantB)
					}
				}
			}
		}
	}
}
