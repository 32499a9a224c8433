package core

import (
	"math/rand"
	"testing"

	"dynunlock/internal/gf2"
	"dynunlock/internal/scan"
	"dynunlock/internal/sim"
)

// The multi-capture model must match the chip's multi-capture sessions bit
// for bit, as the single-capture model does.
func TestMultiCaptureModelMatchesChip(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, captures := range []int{2, 3} {
		for trial := 0; trial < 3; trial++ {
			ffs := 5 + rng.Intn(10)
			keyBits := 3 + rng.Intn(6)
			d, chip := lockedChip(t, ffs, keyBits, scan.PerCycle, rng.Int63n(1<<40)+1, rng.Int63n(1<<40)+1)
			mm, err := BuildMaskModelN(d, 0, captures)
			if err != nil {
				t.Fatal(err)
			}
			simulator := sim.NewComb(mm.Locked.View)
			seed := chip.SecretSeed()
			uv := gf2.VStack(mm.A, mm.B).MulVec(seed)

			for q := 0; q < 4; q++ {
				scanIn := randBools(rng, ffs)
				pis := make([][]bool, captures)
				for c := range pis {
					pis[c] = randBools(rng, 6)
				}
				chip.Reset()
				scanOut, pos := chip.SessionN(make([]bool, keyBits), scanIn, pis)

				in := make([]bool, len(mm.Locked.View.Inputs))
				off := 0
				for _, pi := range pis {
					copy(in[off:], pi)
					off += len(pi)
				}
				copy(in[off:], scanIn)
				off += ffs
				for _, j := range mm.uPos {
					in[off] = uv.Get(j)
					off++
				}
				for _, j := range mm.vPos {
					in[off] = uv.Get(ffs + j)
					off++
				}
				out := simulator.EvalBits(in)
				idx := 0
				for _, po := range pos {
					for _, b := range po {
						if out[idx] != b {
							t.Fatalf("captures=%d: PO %d mismatch", captures, idx)
						}
						idx++
					}
				}
				for j := 0; j < ffs; j++ {
					if out[idx+j] != scanOut[j] {
						t.Fatalf("captures=%d: scan-out %d mismatch", captures, j)
					}
				}
			}
		}
	}
}

// AttackMulti must recover the seed end to end through the attack
// pipeline: encode counters reported and inprocessing run between DIPs.
func TestAttackMultiRecoversSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	_, chip := lockedChip(t, 9, 5, scan.PerCycle, rng.Int63n(1<<40)+1, rng.Int63n(1<<40)+1)
	res, err := AttackMulti(chip, 2, Options{EnumerateLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
		t.Fatalf("multi-capture attack failed: converged=%v candidates=%d",
			res.Converged, len(res.SeedCandidates))
	}
	if res.EncodeVars == 0 || res.EncodeClauses == 0 {
		t.Fatalf("encode counters not reported: vars=%d clauses=%d", res.EncodeVars, res.EncodeClauses)
	}
	if res.Iterations > 0 && res.SolverStats.SimplifyCalls == 0 {
		t.Fatalf("%d DIPs but no inprocessing: %+v", res.Iterations, res.SolverStats)
	}
	// captures < 2 falls back to the standard attack.
	res1, err := AttackMulti(chip, 1, Options{EnumerateLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !ContainsSeed(res1.SeedCandidates, chip.SecretSeed()) {
		t.Fatal("fallback failed")
	}
}

// The paper's refinement claim: when the single-capture masks are rank
// deficient (more key bits than the session exposes), a second capture adds
// independent linear constraints and shrinks the candidate class.
func TestSecondCaptureShrinksCandidates(t *testing.T) {
	// Few flops, many key bits: rank([A;B]) < k for one capture.
	found := false
	for attempt := int64(0); attempt < 6 && !found; attempt++ {
		d, chip := lockedChip(t, 4, 10, scan.PerCycle, 100+attempt, 200+attempt)
		A1, B1, err := maskMatricesN(d, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		r1 := gf2.Rank(gf2.VStack(A1, B1))
		A2, B2, err := maskMatricesN(d, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		combined := gf2.VStack(gf2.VStack(A1, B1), gf2.VStack(A2, B2))
		r12 := gf2.Rank(combined)
		if r1 >= 10 || r12 <= r1 {
			continue // this placement doesn't exhibit the deficiency; try another
		}
		found = true

		res1, err := Attack(chip, Options{EnumerateLimit: 2048})
		if err != nil {
			t.Fatal(err)
		}
		res2, err := AttackMulti(chip, 2, Options{EnumerateLimit: 2048})
		if err != nil {
			t.Fatal(err)
		}
		if !ContainsSeed(res1.SeedCandidates, chip.SecretSeed()) ||
			!ContainsSeed(res2.SeedCandidates, chip.SecretSeed()) {
			t.Fatal("seed lost")
		}
		// Intersecting both candidate sets realizes the combined rank.
		inter := 0
		for _, s2 := range res2.SeedCandidates {
			if ContainsSeed(res1.SeedCandidates, s2) {
				inter++
			}
		}
		if inter >= len(res1.SeedCandidates) && len(res1.SeedCandidates) > 1 {
			t.Fatalf("second capture did not prune: %d -> %d (ranks %d -> %d)",
				len(res1.SeedCandidates), inter, r1, r12)
		}
	}
	if !found {
		t.Skip("no rank-deficient placement found in attempts")
	}
}

func TestMaskMatricesNValidation(t *testing.T) {
	d, _ := lockedChip(t, 6, 4, scan.PerCycle, 300, 301)
	if _, _, err := maskMatricesN(d, 0, 0); err == nil {
		t.Fatal("want error for captures=0")
	}
	if _, err := BuildMaskModelN(d, -1, 1); err == nil {
		t.Fatal("want error for negative pattern index")
	}
}
