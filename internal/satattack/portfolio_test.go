package satattack

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dynunlock/internal/netlist"
	"dynunlock/internal/sim"
)

// keySet renders keys as bit strings in their returned order.
func keySet(cands [][]bool) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		var b strings.Builder
		for _, bit := range c {
			if bit {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		out[i] = b.String()
	}
	return out
}

// Portfolio sizes 1, 2, and 4 must recover the same candidate equivalence
// class, in the same canonical order, and convergence status: which
// instance wins a race changes the DIP order, never the answer.
func TestPortfolioDeterministicCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 4; trial++ {
		orig, locked, _ := lockedPair(rng, 5+rng.Intn(3), 40+rng.Intn(30), 5)
		l := NewLocked(locked, func(i int, s netlist.SignalID) bool {
			return len(locked.N.SignalName(s)) > 0 && locked.N.SignalName(s)[0] == 'k'
		})
		var ref []string
		var refConverged bool
		for _, n := range []int{1, 2, 4} {
			oracle := &simOracle{c: sim.NewComb(orig)}
			res, err := Run(l, oracle, Options{Portfolio: n, EnumerateLimit: 64})
			if err != nil {
				t.Fatalf("trial %d portfolio %d: %v", trial, n, err)
			}
			if !res.CandidatesExact {
				t.Fatalf("trial %d portfolio %d: enumeration not exact", trial, n)
			}
			if len(res.InstanceStats) != n || len(res.InstanceWins) != n {
				t.Fatalf("trial %d portfolio %d: instance metrics %d/%d",
					trial, n, len(res.InstanceStats), len(res.InstanceWins))
			}
			wins := 0
			for _, w := range res.InstanceWins {
				wins += w
			}
			if wins == 0 {
				t.Fatalf("trial %d portfolio %d: no races won", trial, n)
			}
			got := keySet(res.Candidates)
			if !sort.StringsAreSorted(got) {
				t.Fatalf("trial %d portfolio %d: candidates not in canonical order: %v", trial, n, got)
			}
			if n == 1 {
				ref, refConverged = got, res.Converged
				continue
			}
			if res.Converged != refConverged {
				t.Fatalf("trial %d portfolio %d: converged=%v, want %v", trial, n, res.Converged, refConverged)
			}
			if len(got) != len(ref) {
				t.Fatalf("trial %d portfolio %d: %d candidates, want %d", trial, n, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("trial %d portfolio %d: candidate set differs at %d: %s vs %s",
						trial, n, i, got[i], ref[i])
				}
			}
		}
	}
}

// Each portfolio candidate must actually unlock the circuit.
func TestPortfolioKeysCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	orig, locked, _ := lockedPair(rng, 6, 50, 5)
	l := NewLocked(locked, func(i int, s netlist.SignalID) bool {
		return len(locked.N.SignalName(s)) > 0 && locked.N.SignalName(s)[0] == 'k'
	})
	oracle := &simOracle{c: sim.NewComb(orig)}
	res, err := Run(l, oracle, Options{Portfolio: 3, EnumerateLimit: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("portfolio attack did not converge")
	}
	for _, k := range res.Candidates {
		checkEquivalent(t, orig, locked, l, k)
	}
}

// MaxIterations must bound the portfolio DIP loop exactly as it bounds the
// sequential one.
func TestPortfolioMaxIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	orig, locked, _ := lockedPair(rng, 6, 40, 5)
	l := NewLocked(locked, func(i int, s netlist.SignalID) bool {
		return locked.N.SignalName(s)[0] == 'k'
	})
	res, err := Run(l, &simOracle{c: sim.NewComb(orig)}, Options{Portfolio: 2, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 1 {
		t.Fatalf("iterations = %d, want <= 1", res.Iterations)
	}
}
