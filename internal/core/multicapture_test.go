package core

import (
	"context"
	"math/rand"
	"testing"

	"dynunlock/internal/aig"
	"dynunlock/internal/gf2"
	"dynunlock/internal/scan"
	"dynunlock/internal/trace"
)

// The mask model must match the chip's sessions bit for bit at every
// capture count, one included.
func TestMultiCaptureModelMatchesChip(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, captures := range []int{1, 2, 3} {
		for trial := 0; trial < 3; trial++ {
			ffs := 5 + rng.Intn(10)
			keyBits := 3 + rng.Intn(6)
			d, chip := lockedChip(t, ffs, keyBits, scan.PerCycle, rng.Int63n(1<<40)+1, rng.Int63n(1<<40)+1)
			mm, err := BuildMaskModel(d, 0, captures)
			if err != nil {
				t.Fatal(err)
			}
			simulator := aig.NewSim(mm.Locked.Graph)
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

				// One pattern in bit 0 of each input word.
				in := make([]uint64, 0, mm.Locked.Graph.NumInputs())
				bit := func(b bool) {
					w := uint64(0)
					if b {
						w = 1
					}
					in = append(in, w)
				}
				for _, pi := range pis {
					for _, b := range pi {
						bit(b)
					}
				}
				for _, b := range scanIn {
					bit(b)
				}
				for _, j := range mm.UPos {
					bit(uv.Get(j))
				}
				for _, j := range mm.VPos {
					bit(uv.Get(ffs + j))
				}
				words := simulator.Eval(in)
				out := make([]bool, len(words))
				for i, w := range words {
					out[i] = w&1 == 1
				}
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

// AttackMultiCtx must recover the seed end to end through the attack
// pipeline: encode counters reported and inprocessing run between DIPs.
func TestAttackMultiRecoversSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	_, chip := lockedChip(t, 9, 5, scan.PerCycle, rng.Int63n(1<<40)+1, rng.Int63n(1<<40)+1)
	res, err := AttackMultiCtx(context.Background(), chip, 2, Options{EnumerateLimit: 64})
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
	// One capture is the standard attack.
	res1, err := AttackMultiCtx(context.Background(), chip, 1, Options{EnumerateLimit: 64})
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
		res2, err := AttackMultiCtx(context.Background(), chip, 2, Options{EnumerateLimit: 2048})
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
	if _, err := BuildMaskModel(d, -1, 1); err == nil {
		t.Fatal("want error for negative pattern index")
	}
}

// A session the attack cannot model is refused before any session is
// issued: no capture at all, and the one-capture direct model asked to
// serve two captures.
func TestAttackMultiRejectsUnmodeledSessions(t *testing.T) {
	for _, tc := range []struct {
		name     string
		captures int
		opts     Options
	}{
		{"no capture", 0, Options{}},
		{"direct at two captures", 2, Options{Mode: ModeDirect}},
	} {
		_, chip := lockedChip(t, 8, 8, scan.PerCycle, 7, 8)
		sessions := 0
		chip.SessionHook = func(uint64) { sessions++ }
		res, err := AttackMultiCtx(context.Background(), chip, tc.captures, tc.opts)
		if err == nil || res != nil || sessions != 0 {
			t.Fatalf("%s: result %v, err %v after %d sessions, want an error and no session", tc.name, res, err, sessions)
		}
	}
}

// TestAttackMultiVerifiesOnProbes requires the multi-capture attack to
// verify its candidates as AttackCtx does: one "verify" span with 8
// two-capture probe sessions, checked against the closed form, so a seed
// whose scan-out masks differ from the secret's fails its first probe.
func TestAttackMultiVerifiesOnProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	d, chip := lockedChip(t, 9, 5, scan.PerCycle, rng.Int63n(1<<40)+1, rng.Int63n(1<<40)+1)
	c := trace.NewCollector()
	res, err := AttackMultiCtx(trace.With(context.Background(), c), chip, 2, Options{EnumerateLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	var verify []trace.SpanRecord
	for _, sp := range c.Spans() {
		if sp.Name == "verify" {
			verify = append(verify, sp)
		}
	}
	if len(verify) != 1 || verify[0].Counters["probes"] != 8 ||
		verify[0].Counters["candidates"] != uint64(len(res.SeedCandidates)) {
		t.Fatalf("verify spans %+v, want one with 8 probes over %d candidates", verify, len(res.SeedCandidates))
	}
	if !res.Verified {
		t.Fatal("the recovered candidates failed their probes")
	}

	A, B, err := maskMatricesN(d, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	wrong := chip.SecretSeed().Clone()
	for i := 0; i < wrong.Len(); i++ {
		if !B.MulVec(gf2.Unit(wrong.Len(), i)).IsZero() {
			wrong.Flip(i)
			break
		}
	}
	c = trace.NewCollector()
	ok, err := verifyCandidates(trace.From(trace.With(context.Background(), c)), chip, make([]bool, d.Config.KeyBits), []gf2.Vec{wrong}, 8, 2, A, B)
	if err != nil {
		t.Fatal(err)
	}
	if spans := c.Spans(); ok || len(spans) != 1 || spans[0].Counters["probes"] != 1 {
		t.Fatalf("a seed with other scan-out masks verified %v after spans %+v, want false after 1 probe", ok, spans)
	}
}
