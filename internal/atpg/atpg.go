// Package atpg generates test patterns for single stuck-at faults with a
// SAT formulation: a miter between the fault-free circuit and a copy with
// the faulty signal forced, satisfied exactly by detecting patterns.
// Redundant (untestable) faults are proven so by UNSAT.
//
// Together with internal/fault it provides the workload that motivates
// scan design — and therefore scan locking and this paper's attack: a
// tester without working scan access cannot apply these patterns.
package atpg

import (
	"fmt"
	"math/rand"

	"dynunlock/internal/aig"
	"dynunlock/internal/cnf"
	"dynunlock/internal/encode"
	"dynunlock/internal/fault"
	"dynunlock/internal/netlist"
	"dynunlock/internal/sat"
)

// Result classifies one fault after test generation.
type Result int8

// Fault classifications.
const (
	// Detected: a test pattern was found.
	Detected Result = iota
	// Redundant: proven untestable (the fault never changes any output).
	Redundant
	// Aborted: the solver budget expired before a verdict.
	Aborted
)

// String names the classification.
func (r Result) String() string {
	switch r {
	case Detected:
		return "detected"
	case Redundant:
		return "redundant"
	default:
		return "aborted"
	}
}

// GenerateTest finds an input pattern detecting fault f on view v, or
// proves the fault redundant. conflictBudget 0 means unlimited.
func GenerateTest(v *netlist.CombView, f fault.Fault, conflictBudget int64) ([]bool, Result, error) {
	good, err := aig.FromCombView(v)
	if err != nil {
		return nil, Aborted, fmt.Errorf("atpg: %w", err)
	}
	s := sat.New()
	s.ConflictBudget = conflictBudget
	e := encode.New(s)
	in := e.FreshVec(len(v.Inputs))
	bad, err := encodeFaulty(e, v, good, in, f)
	if err != nil {
		return nil, Aborted, err
	}
	act := e.Miter(e.EncodeAIG(good, in), bad)
	switch s.Solve(act) {
	case sat.Sat:
		return e.ModelBits(in), Detected, nil
	case sat.Unsat:
		return nil, Redundant, nil
	default:
		return nil, Aborted, nil
	}
}

// encodeFaulty encodes a copy of v with f.Signal replaced by its stuck
// value everywhere it is read. A fault site that is a view input reuses
// the fault-free graph with that input's literal replaced by the stuck
// constant; any other site is cut out of the netlist as an extra graph
// input bound to the constant, so its fan-in cone drops out of the copy.
func encodeFaulty(e *encode.Encoder, v *netlist.CombView, good *aig.Graph, in []cnf.Lit, f fault.Fault) ([]cnf.Lit, error) {
	stuck := e.Const(f.StuckAt)
	for i, sig := range v.Inputs {
		if sig == f.Signal {
			lits := append([]cnf.Lit(nil), in...)
			lits[i] = stuck
			return e.EncodeAIG(good, lits), nil
		}
	}
	cut := *v
	cut.Inputs = append(append([]netlist.SignalID(nil), v.Inputs...), f.Signal)
	g, err := aig.FromCombView(&cut)
	if err != nil {
		return nil, fmt.Errorf("atpg: %w", err)
	}
	return e.EncodeAIG(g, append(append([]cnf.Lit(nil), in...), stuck)), nil
}

// Options tunes a pattern-generation campaign.
type Options struct {
	// RandomPatterns seeds the campaign with this many random patterns
	// before deterministic generation (0 selects 64). Random-pattern fault
	// dropping is what makes full campaigns cheap.
	RandomPatterns int
	// ConflictBudget bounds each SAT call (0 = unlimited).
	ConflictBudget int64
	// Seed drives random-pattern generation.
	Seed int64
}

// CampaignResult summarizes test generation for a fault universe.
type CampaignResult struct {
	Patterns   [][]bool
	Detected   int
	Redundant  int
	Aborted    int
	Total      int
	RandomHits int // faults dropped by the random phase
}

// Coverage returns detected / (total - redundant): redundant faults are
// untestable by definition and excluded, per standard practice.
func (c CampaignResult) Coverage() float64 {
	testable := c.Total - c.Redundant
	if testable <= 0 {
		return 1
	}
	return float64(c.Detected) / float64(testable)
}

// GeneratePatterns runs a full campaign: random patterns with fault
// dropping, then SAT-based generation for the survivors.
func GeneratePatterns(v *netlist.CombView, faults []fault.Fault, opts Options) CampaignResult {
	if opts.RandomPatterns == 0 {
		opts.RandomPatterns = 64
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	res := CampaignResult{Total: len(faults)}

	var patterns [][]bool
	for p := 0; p < opts.RandomPatterns; p++ {
		pat := make([]bool, len(v.Inputs))
		for i := range pat {
			pat[i] = rng.Intn(2) == 1
		}
		patterns = append(patterns, pat)
	}
	camp := fault.Campaign(v, faults, patterns)
	res.RandomHits = camp.Detected
	res.Detected = camp.Detected

	sim := fault.NewSimulator(v)
	remaining := camp.Undetected
	for len(remaining) > 0 {
		f := remaining[0]
		remaining = remaining[1:]
		pat, verdict, err := GenerateTest(v, f, opts.ConflictBudget)
		if err != nil {
			res.Aborted++
			continue
		}
		switch verdict {
		case Redundant:
			res.Redundant++
		case Aborted:
			res.Aborted++
		case Detected:
			res.Detected++
			patterns = append(patterns, pat)
			// Fault dropping: the new pattern may detect later survivors.
			packed := fault.PackPatterns([][]bool{pat}, len(v.Inputs))
			kept := remaining[:0]
			for _, g := range remaining {
				if sim.Detects(g, packed)&1 == 1 {
					res.Detected++
				} else {
					kept = append(kept, g)
				}
			}
			remaining = kept
		}
	}
	res.Patterns = patterns
	return res
}
