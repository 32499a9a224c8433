package encode

import (
	"fmt"
	"slices"

	"dynunlock/internal/aig"
	"dynunlock/internal/cnf"
)

// EncodeAIG instantiates one copy of the compacted graph g with the given
// input literals (one per graph input, possibly constants) and returns one
// literal per graph output. The graph is built once per attack, and each
// circuit copy — the two fresh-key copies, and one constant-input copy per
// DIP — replays the arena through a per-copy substitution map, which the
// encoder keeps, with the liveness marks, from one copy to the next.
//
// Constants propagate through the copy before any clause is emitted: a
// node whose operand maps to the constant literal folds inside And/Xor, and
// the fold result shadows the node for every consumer. A backward
// liveness sweep over the arena additionally skips nodes whose fanout was
// entirely folded away, so DIP-constrained copies collapse to the residual
// key-dependent cone instead of re-emitting the full circuit.
func (e *Encoder) EncodeAIG(g *aig.Graph, inputs []cnf.Lit) []cnf.Lit {
	if len(inputs) != g.NumInputs() {
		panic(fmt.Sprintf("encode: got %d input literals, graph has %d inputs", len(inputs), g.NumInputs()))
	}
	n := g.NumNodes()
	need := slices.Grow(e.need[:0], n)[:n]
	clear(need)
	e.need = need
	for _, o := range g.Outputs() {
		need[o.Node()] = true
	}
	for i := n - 1; i >= 1; i-- {
		if !need[i] {
			continue
		}
		kind, a, b := g.NodeAt(i)
		if kind == aig.KindAnd || kind == aig.KindXor {
			need[a.Node()] = true
			need[b.Node()] = true
		}
	}

	// The substitution map: arena node -> CNF literal for this copy.
	lits := slices.Grow(e.lits[:0], n)[:n]
	e.lits = lits
	lits[0] = e.False()
	for i := 0; i < g.NumInputs(); i++ {
		lits[g.Input(i).Node()] = inputs[i]
	}
	cl := func(l aig.Lit) cnf.Lit {
		v := lits[l.Node()]
		if l.Sign() {
			return v.Not()
		}
		return v
	}
	// Arena index order is topological, so one forward sweep defines every
	// live node. And/Xor fold constants and hit the encoder's structural
	// cache, so copies sharing input literals share clauses too.
	for i := 1; i < n; i++ {
		if !need[i] {
			continue
		}
		kind, a, b := g.NodeAt(i)
		switch kind {
		case aig.KindAnd:
			lits[i] = e.And(cl(a), cl(b))
		case aig.KindXor:
			lits[i] = e.Xor(cl(a), cl(b))
		}
	}
	out := make([]cnf.Lit, len(g.Outputs()))
	for i, o := range g.Outputs() {
		out[i] = cl(o)
	}
	return out
}
