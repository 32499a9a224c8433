package sim

import (
	"math/rand"
	"testing"

	"dynunlock/internal/aig"
	"dynunlock/internal/bench"
	"dynunlock/internal/netlist"
)

// The AIG fast path must be cycle-for-cycle identical to the gate-level
// sequential simulator.
func TestSeqAIGMatchesSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for seed := int64(0); seed < 4; seed++ {
		n, err := bench.Generate(bench.GenConfig{
			Name: "seqaig", PIs: 6, POs: 5, FFs: 10, Gates: 80, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		v, err := netlist.NewCombView(n)
		if err != nil {
			t.Fatal(err)
		}
		g, err := aig.FromCombView(v)
		if err != nil {
			t.Fatal(err)
		}
		ref, fast := NewSeq(v), NewSeqAIG(v, g)
		for cycle := 0; cycle < 50; cycle++ {
			pi := make([]bool, v.NumPI)
			for i := range pi {
				pi[i] = rng.Intn(2) == 1
			}
			want := ref.Step(pi)
			got := fast.Step(pi)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d cycle %d po %d: aig=%v gate=%v", seed, cycle, i, got[i], want[i])
				}
			}
		}
		ws, gs := ref.State(), fast.State()
		for i := range ws {
			if ws[i] != gs[i] {
				t.Fatalf("seed %d: state diverged at flop %d", seed, i)
			}
		}
	}
}
