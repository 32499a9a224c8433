// Package encode translates gate-level netlists into CNF (Tseitin
// encoding) on top of an incremental sat.Solver, and builds the miter
// structures used by oracle-guided attacks.
//
// The encoder works on netlist.CombView functions: the caller supplies one
// literal per view input (possibly constants), and receives one literal per
// view output. Multiple copies of the same circuit — the two key copies of
// the SAT attack, plus one copy per distinguishing input — are created by
// repeated Encode calls sharing whatever input literals the construction
// requires.
package encode

import (
	"fmt"

	"dynunlock/internal/cnf"
	"dynunlock/internal/netlist"
	"dynunlock/internal/sat"
)

// Encoder owns the mapping onto a shared SAT solver. Two-input gates are
// structurally hashed: encoding the same (op, a, b) twice returns the same
// literal without new clauses. This makes repeated EncodeComb calls over
// the same netlist cheap wherever subcircuits (such as the DynUnlock seed-
// mask XOR ladders) depend only on shared literals.
type Encoder struct {
	S       *sat.Solver
	cfg     Config
	trueLit cnf.Lit
	cache   map[gateKey]cnf.Lit
}

// Config tunes the encoding. The zero value is the classic pure-CNF
// Tseitin encoding, which the ATPG and equivalence-checking encoders use;
// the SAT attack always sets NativeXor.
type Config struct {
	// NativeXor emits XOR/XNOR gates (and therefore the DynUnlock
	// seed-mask ladders) as native solver XOR rows via sat.Solver.AddXor
	// instead of 4-clause Tseitin expansions, letting the GF(2) layer
	// propagate parity by Gaussian elimination instead of CDCL search.
	NativeXor bool
}

type gateKey struct {
	op      uint8
	a, b, c cnf.Lit // c is litNone for two-input ops
}

// litNone marks an absent operand in gateKey; cnf.Lit 0 is a valid literal
// (variable 0, positive), so the sentinel must be out of range.
const litNone cnf.Lit = -1

const (
	opAnd uint8 = iota
	opOr
	opXor
	opMux
)

// New returns an encoder bound to s, allocating the constant-true variable.
func New(s *sat.Solver) *Encoder { return NewWithConfig(s, Config{}) }

// NewWithConfig returns an encoder bound to s with the given configuration,
// allocating the constant-true variable.
func NewWithConfig(s *sat.Solver, cfg Config) *Encoder {
	v := s.NewVar()
	t := cnf.MkLit(v, false)
	s.AddClause(t)
	return &Encoder{S: s, cfg: cfg, trueLit: t, cache: make(map[gateKey]cnf.Lit)}
}

func key(op uint8, a, b cnf.Lit) gateKey {
	if a > b {
		a, b = b, a
	}
	return gateKey{op, a, b, litNone}
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

// EncodeComb instantiates one copy of the combinational function v with the
// given input literals (one per v.Inputs) and returns the output literals
// (one per v.Outputs).
func (e *Encoder) EncodeComb(v *netlist.CombView, inputs []cnf.Lit) []cnf.Lit {
	if len(inputs) != len(v.Inputs) {
		panic(fmt.Sprintf("encode: got %d input literals, want %d", len(inputs), len(v.Inputs)))
	}
	n := v.N
	lits := make([]cnf.Lit, n.NumSignals())
	assigned := make([]bool, n.NumSignals())
	for i, s := range v.Inputs {
		lits[s] = inputs[i]
		assigned[s] = true
	}
	for id := 0; id < n.NumSignals(); id++ {
		switch n.Type(netlist.SignalID(id)) {
		case netlist.Const0:
			lits[id] = e.False()
			assigned[id] = true
		case netlist.Const1:
			lits[id] = e.True()
			assigned[id] = true
		}
	}
	for _, id := range v.Order {
		g := n.Gate(id)
		fan := make([]cnf.Lit, len(g.Fanin))
		for i, f := range g.Fanin {
			if !assigned[f] {
				panic(fmt.Sprintf("encode: signal %q used before definition", n.SignalName(f)))
			}
			fan[i] = lits[f]
		}
		lits[id] = e.encodeGate(g.Type, fan)
		assigned[id] = true
	}
	out := make([]cnf.Lit, len(v.Outputs))
	for i, s := range v.Outputs {
		if !assigned[s] {
			panic(fmt.Sprintf("encode: output %q undefined", n.SignalName(s)))
		}
		out[i] = lits[s]
	}
	return out
}

func (e *Encoder) encodeGate(t netlist.GateType, fan []cnf.Lit) cnf.Lit {
	switch t {
	case netlist.Buf:
		return fan[0]
	case netlist.Not:
		return fan[0].Not()
	case netlist.And:
		return e.And(fan...)
	case netlist.Nand:
		return e.And(fan...).Not()
	case netlist.Or:
		return e.Or(fan...)
	case netlist.Nor:
		return e.Or(fan...).Not()
	case netlist.Xor:
		return e.XorN(fan...)
	case netlist.Xnor:
		return e.XorN(fan...).Not()
	case netlist.Mux:
		return e.Mux(fan[0], fan[1], fan[2])
	default:
		panic(fmt.Sprintf("encode: cannot encode gate type %v", t))
	}
}

// And returns a literal equivalent to the conjunction of the inputs, with
// constant folding and structural hashing.
func (e *Encoder) And(ins ...cnf.Lit) cnf.Lit {
	kept := make([]cnf.Lit, 0, len(ins))
	for _, a := range ins {
		switch {
		case a == e.False():
			return e.False()
		case a == e.True():
			continue
		}
		dup := false
		for _, k := range kept {
			if k == a {
				dup = true
			}
			if k == a.Not() {
				return e.False()
			}
		}
		if !dup {
			kept = append(kept, a)
		}
	}
	switch len(kept) {
	case 0:
		return e.True()
	case 1:
		return kept[0]
	case 2:
		k := key(opAnd, kept[0], kept[1])
		if z, ok := e.cache[k]; ok {
			return z
		}
		z := e.and(kept)
		e.cache[k] = z
		return z
	}
	return e.and(kept)
}

func (e *Encoder) and(ins []cnf.Lit) cnf.Lit {
	z := e.Fresh()
	long := make([]cnf.Lit, 0, len(ins)+1)
	long = append(long, z)
	for _, a := range ins {
		e.S.AddClause(z.Not(), a)
		long = append(long, a.Not())
	}
	e.S.AddClause(long...)
	return z
}

// Or returns a literal equivalent to the disjunction of the inputs, with
// constant folding and structural hashing (via De Morgan on And).
func (e *Encoder) Or(ins ...cnf.Lit) cnf.Lit {
	neg := make([]cnf.Lit, len(ins))
	for i, a := range ins {
		neg[i] = a.Not()
	}
	return e.And(neg...).Not()
}

// Xor returns a literal equivalent to a XOR b.
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
		if e.cfg.NativeXor {
			// z = a ⊕ b as one GF(2) row: z ⊕ a ⊕ b = 0.
			e.S.AddXor([]cnf.Lit{z, a, b}, false)
		} else {
			e.S.AddClause(z.Not(), a, b)
			e.S.AddClause(z.Not(), a.Not(), b.Not())
			e.S.AddClause(z, a.Not(), b)
			e.S.AddClause(z, a, b.Not())
		}
		e.cache[k] = z
	}
	if flip {
		return z.Not()
	}
	return z
}

// XorN chains Xor over the inputs.
func (e *Encoder) XorN(ins ...cnf.Lit) cnf.Lit {
	acc := ins[0]
	for _, l := range ins[1:] {
		acc = e.Xor(acc, l)
	}
	return acc
}

// Mux returns d1 if sel else d0, folding constant selectors, constant and
// coincident data inputs, and structurally hashing the residual node. The
// data-input folds matter for re-encoding under constant input vectors (the
// per-DIP copies of the attack loop): a mux whose branches collapsed to
// constants reduces to an AND/OR/passthrough instead of four dead clauses.
func (e *Encoder) Mux(sel, d0, d1 cnf.Lit) cnf.Lit {
	switch {
	case sel == e.True():
		return d1
	case sel == e.False():
		return d0
	case d0 == d1:
		return d0
	case d0 == d1.Not():
		return e.Xor(sel, d0)
	case d1 == e.True() || d1 == sel:
		return e.Or(sel, d0)
	case d1 == e.False() || d1 == sel.Not():
		return e.And(sel.Not(), d0)
	case d0 == e.True() || d0 == sel.Not():
		return e.Or(sel.Not(), d1)
	case d0 == e.False() || d0 == sel:
		return e.And(sel, d1)
	}
	// Canonical polarity: positive selector (swapping branches), so
	// Mux(¬s,a,b) and Mux(s,b,a) share one node.
	if sel.Sign() {
		sel, d0, d1 = sel.Not(), d1, d0
	}
	k := gateKey{opMux, sel, d0, d1}
	if z, ok := e.cache[k]; ok {
		return z
	}
	z := e.Fresh()
	e.S.AddClause(sel.Not(), d1.Not(), z)
	e.S.AddClause(sel.Not(), d1, z.Not())
	e.S.AddClause(sel, d0.Not(), z)
	e.S.AddClause(sel, d0, z.Not())
	e.cache[k] = z
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
