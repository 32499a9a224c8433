// Package encode instantiates and-inverter graphs (internal/aig) as
// constraints of an incremental sat.Solver — AND nodes as three Tseitin
// clauses, XOR nodes as native GF(2) solver rows — and builds the miter
// structures used by oracle-guided attacks and equivalence checks.
//
// Logic reaches the solver as an and-inverter graph, built once (by
// aig.FromCombView from a netlist, or by internal/core straight from the
// design's core), and EncodeAIG replays the graph per circuit copy. The
// caller supplies one literal per graph input (possibly constants) and
// receives one literal per graph output. Multiple copies of the same
// circuit — the two key copies of the SAT attack, plus one copy per
// distinguishing input — are created by repeated EncodeAIG calls sharing
// whatever input literals the construction requires. An Encoder and its
// solver can be reused for another problem: sat.Solver.Reset and then
// Encoder.Reset empty both and keep their storage.
package encode

import (
	"fmt"

	"dynunlock/internal/cnf"
	"dynunlock/internal/sat"
)

// Encoder owns the mapping onto a shared SAT solver. Two-input gates are
// structurally hashed: encoding the same (op, a, b) twice returns the same
// literal without new constraints. This makes repeated EncodeAIG calls over
// the same graph cheap wherever subcircuits (such as the DynUnlock seed-
// mask XOR ladders) depend only on shared literals.
type Encoder struct {
	S       *sat.Solver
	trueLit cnf.Lit
	cache   map[gateKey]cnf.Lit

	// need and lits are EncodeAIG's per-copy liveness marks and
	// substitution map, kept across copies and across Reset.
	need []bool
	lits []cnf.Lit
}

type gateKey struct {
	op   uint8
	a, b cnf.Lit
}

const (
	opAnd uint8 = iota
	opXor
)

// New returns an encoder bound to s, allocating the constant-true variable.
func New(s *sat.Solver) *Encoder {
	e := &Encoder{S: s}
	e.Reset()
	return e
}

// Reset empties the gate table and allocates the constant-true variable on
// e.S, which must be empty: new, or emptied by sat.Solver.Reset. The table
// and EncodeAIG's scratch keep their capacity, so an encoder reused for a
// second problem of similar size allocates little, and it encodes exactly
// as a new one would. A caller that sets the solver's budget or hook does
// so before Reset, so that the hook sees the constant's unit.
func (e *Encoder) Reset() {
	clear(e.cache)
	if e.cache == nil {
		e.cache = make(map[gateKey]cnf.Lit)
	}
	e.trueLit = cnf.MkLit(e.S.NewVar(), false)
	e.S.AddClause(e.trueLit)
}

func key(op uint8, a, b cnf.Lit) gateKey {
	if a > b {
		a, b = b, a
	}
	return gateKey{op, a, b}
}

// True returns the always-true literal.
func (e *Encoder) True() cnf.Lit { return e.trueLit }

// False returns the always-false literal.
func (e *Encoder) False() cnf.Lit { return e.trueLit.Not() }

// Const returns the literal for a boolean constant.
func (e *Encoder) Const(b bool) cnf.Lit {
	if b {
		return e.trueLit
	}
	return e.trueLit.Not()
}

// Fresh allocates a fresh variable and returns its positive literal.
func (e *Encoder) Fresh() cnf.Lit { return cnf.MkLit(e.S.NewVar(), false) }

// FreshVec allocates n fresh literals.
func (e *Encoder) FreshVec(n int) []cnf.Lit {
	out := make([]cnf.Lit, n)
	for i := range out {
		out[i] = e.Fresh()
	}
	return out
}

// And returns a literal equivalent to a AND b, with constant folding and
// structural hashing.
func (e *Encoder) And(a, b cnf.Lit) cnf.Lit {
	switch {
	case a == e.False() || b == e.False() || a == b.Not():
		return e.False()
	case a == e.True() || a == b:
		return b
	case b == e.True():
		return a
	}
	k := key(opAnd, a, b)
	if z, ok := e.cache[k]; ok {
		return z
	}
	z := e.Fresh()
	e.S.AddClause(z.Not(), a)
	e.S.AddClause(z.Not(), b)
	e.S.AddClause(z, a.Not(), b.Not())
	e.cache[k] = z
	return z
}

// Xor returns a literal equivalent to a XOR b, emitted as one native GF(2)
// solver row so the XOR layer propagates parity by row scans instead of
// CDCL search over a clause expansion. Its output z is always a fresh
// variable, so the row is never a combination of earlier ones.
func (e *Encoder) Xor(a, b cnf.Lit) cnf.Lit {
	// Constant folding keeps the seed-mask XOR ladders compact.
	switch {
	case a == e.False():
		return b
	case a == e.True():
		return b.Not()
	case b == e.False():
		return a
	case b == e.True():
		return a.Not()
	case a == b:
		return e.False()
	case a == b.Not():
		return e.True()
	}
	// Canonical polarity: XOR with both inputs positive; negations fold
	// into the result, maximizing cache hits.
	flip := false
	if a.Sign() {
		a, flip = a.Not(), !flip
	}
	if b.Sign() {
		b, flip = b.Not(), !flip
	}
	k := key(opXor, a, b)
	z, ok := e.cache[k]
	if !ok {
		z = e.Fresh()
		// z = a ⊕ b as one GF(2) row: z ⊕ a ⊕ b = 0.
		e.S.AddXor([]cnf.Lit{z, a, b}, false)
		e.cache[k] = z
	}
	if flip {
		return z.Not()
	}
	return z
}

// Miter adds a relaxable output-difference constraint between two equal-
// length output vectors: the returned activation literal, when assumed,
// forces ys1 != ys2 in at least one position. Without the assumption the
// constraint is inert, which lets the attack loop retire the miter after
// convergence without rebuilding the solver.
func (e *Encoder) Miter(ys1, ys2 []cnf.Lit) cnf.Lit {
	if len(ys1) != len(ys2) {
		panic(fmt.Sprintf("encode: miter arity %d vs %d", len(ys1), len(ys2)))
	}
	act := e.Fresh()
	clause := make([]cnf.Lit, 0, len(ys1)+1)
	clause = append(clause, act.Not())
	for i := range ys1 {
		clause = append(clause, e.Xor(ys1[i], ys2[i]))
	}
	e.S.AddClause(clause...)
	return act
}

// AssertEqualConst constrains each literal to the given constant value.
func (e *Encoder) AssertEqualConst(lits []cnf.Lit, vals []bool) {
	if len(lits) != len(vals) {
		panic(fmt.Sprintf("encode: assert arity %d vs %d", len(lits), len(vals)))
	}
	for i, l := range lits {
		if vals[i] {
			e.S.AddClause(l)
		} else {
			e.S.AddClause(l.Not())
		}
	}
}

// ConstVec converts a bool vector into constant literals.
func (e *Encoder) ConstVec(vals []bool) []cnf.Lit {
	out := make([]cnf.Lit, len(vals))
	for i, b := range vals {
		out[i] = e.Const(b)
	}
	return out
}

// ModelBits reads the solved values of the given literals from the last SAT
// model.
func (e *Encoder) ModelBits(lits []cnf.Lit) []bool {
	out := make([]bool, len(lits))
	for i, l := range lits {
		out[i] = e.S.Value(l.Var()) != l.Sign()
	}
	return out
}
