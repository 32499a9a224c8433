// Package equiv provides SAT-based combinational equivalence checking:
// a miter between two circuits (or two keyed instances of one circuit)
// that is UNSAT exactly when they agree on every input.
//
// The attack pipeline uses it as the *formal* counterpart of probe-based
// verification: for tractable sizes, a recovered seed can be proven — not
// just sampled — to reproduce the locked chip's scan-session function.
package equiv

import (
	"fmt"

	"dynunlock/internal/aig"
	"dynunlock/internal/cnf"
	"dynunlock/internal/encode"
	"dynunlock/internal/netlist"
	"dynunlock/internal/sat"
)

// Result reports an equivalence check.
type Result struct {
	// Equivalent is true when the miter was proven UNSAT.
	Equivalent bool
	// Counterexample is an input assignment on which the circuits differ
	// (nil when Equivalent or Unknown).
	Counterexample []bool
	// Unknown is true when the solver budget expired before a verdict.
	Unknown bool
}

// Check decides whether two combinational views compute the same function.
// The views must have the same input and output arity; inputs are paired
// positionally. conflictBudget 0 means unlimited.
func Check(a, b *netlist.CombView, conflictBudget int64) (Result, error) {
	if len(a.Inputs) != len(b.Inputs) {
		return Result{}, fmt.Errorf("equiv: input arity %d vs %d", len(a.Inputs), len(b.Inputs))
	}
	if len(a.Outputs) != len(b.Outputs) {
		return Result{}, fmt.Errorf("equiv: output arity %d vs %d", len(a.Outputs), len(b.Outputs))
	}
	ga, err := aig.FromCombView(a)
	if err != nil {
		return Result{}, fmt.Errorf("equiv: %w", err)
	}
	gb, err := aig.FromCombView(b)
	if err != nil {
		return Result{}, fmt.Errorf("equiv: %w", err)
	}
	s := sat.New()
	s.ConflictBudget = conflictBudget
	e := encode.New(s)
	in := e.FreshVec(len(a.Inputs))
	return decide(s, e, in, e.EncodeAIG(ga, in), e.EncodeAIG(gb, in))
}

// CheckKeyed decides whether one locked view under key1 computes the same
// function (over the non-key inputs) as the same view under key2. keyIdx
// lists the positions in view.Inputs that are key inputs, ordered like
// key1/key2.
func CheckKeyed(view *netlist.CombView, keyIdx []int, key1, key2 []bool, conflictBudget int64) (Result, error) {
	if len(key1) != len(keyIdx) || len(key2) != len(keyIdx) {
		return Result{}, fmt.Errorf("equiv: key length %d/%d, want %d", len(key1), len(key2), len(keyIdx))
	}
	isKey := make(map[int]bool, len(keyIdx))
	for _, i := range keyIdx {
		if i < 0 || i >= len(view.Inputs) {
			return Result{}, fmt.Errorf("equiv: key index %d out of range", i)
		}
		if isKey[i] {
			return Result{}, fmt.Errorf("equiv: duplicate key index %d", i)
		}
		isKey[i] = true
	}
	g, err := aig.FromCombView(view)
	if err != nil {
		return Result{}, fmt.Errorf("equiv: %w", err)
	}
	s := sat.New()
	s.ConflictBudget = conflictBudget
	e := encode.New(s)

	var free []cnf.Lit
	full1 := make([]cnf.Lit, len(view.Inputs))
	full2 := make([]cnf.Lit, len(view.Inputs))
	for i := range view.Inputs {
		if !isKey[i] {
			l := e.Fresh()
			free = append(free, l)
			full1[i] = l
			full2[i] = l
		}
	}
	for ki, i := range keyIdx {
		full1[i] = e.Const(key1[ki])
		full2[i] = e.Const(key2[ki])
	}
	return decide(s, e, free, e.EncodeAIG(g, full1), e.EncodeAIG(g, full2))
}

func decide(s *sat.Solver, e *encode.Encoder, in, ya, yb []cnf.Lit) (Result, error) {
	act := e.Miter(ya, yb)
	switch s.Solve(act) {
	case sat.Unsat:
		return Result{Equivalent: true}, nil
	case sat.Sat:
		return Result{Counterexample: e.ModelBits(in)}, nil
	default:
		return Result{Unknown: true}, nil
	}
}
