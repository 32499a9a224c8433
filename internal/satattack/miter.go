package satattack

import (
	"context"
	"sort"

	"dynunlock/internal/cnf"
	"dynunlock/internal/encode"
	"dynunlock/internal/metrics"
	"dynunlock/internal/sat"
)

// miter is the attack's one solver with its encoding of the locked
// circuit: two copies over shared inputs x and independent keys k1, k2,
// whose outputs are forced apart when act is assumed.
type miter struct {
	l   *Locked
	s   *sat.Solver
	e   *encode.Encoder
	x   []cnf.Lit
	k1  []cnf.Lit
	k2  []cnf.Lit
	act cnf.Lit
}

// emitted snapshots a solver's problem size (variables; clauses plus
// native XOR rows) for encode-growth accounting.
func emitted(s *sat.Solver) (uint64, uint64) {
	return uint64(s.NumVars()), uint64(s.NumClauses() + s.NumXors())
}

// newMiter encodes the miter from the locked graph, XOR gates as native
// GF(2) rows, on an encoder from miterEncoders.
func newMiter(l *Locked, opts Options, mr *metrics.Registry) *miter {
	e := acquire(&miterEncoders, mr)
	s := e.S
	m := &miter{
		l:  l,
		s:  s,
		e:  e,
		x:  e.FreshVec(len(l.InIdx)),
		k1: e.FreshVec(len(l.KeyIdx)),
		k2: e.FreshVec(len(l.KeyIdx)),
	}
	y1 := e.EncodeAIG(l.Graph, l.assemble(m.x, m.k1))
	y2 := e.EncodeAIG(l.Graph, l.assemble(m.x, m.k2))
	m.act = e.Miter(y1, y2)
	// Branch on key variables first: the miter search closes fastest when
	// the candidate keys are fixed before the shared inputs.
	for _, ks := range [][]cnf.Lit{m.k1, m.k2} {
		for _, kl := range ks {
			s.BumpActivity(kl.Var(), 1)
		}
	}
	return m
}

// replayDIP asserts the oracle's response for a distinguishing input on
// both key copies and returns the problem-size growth.
func (m *miter) replayDIP(dip, resp []bool) (dVars, dClauses uint64) {
	ev0, ec0 := emitted(m.s)
	cx := m.e.ConstVec(dip)
	m.e.AssertEqualConst(m.e.EncodeAIG(m.l.Graph, m.l.assemble(cx, m.k1)), resp)
	m.e.AssertEqualConst(m.e.EncodeAIG(m.l.Graph, m.l.assemble(cx, m.k2)), resp)
	ev1, ec1 := emitted(m.s)
	return ev1 - ev0, ec1 - ec0
}

// block adds a blocking clause for key k. It reports false when the
// remaining space is proven empty at top level.
func (m *miter) block(k []bool) bool {
	return m.s.AddClause(blockingClause(m.k1, k)...)
}

// blockingClause returns the literals in pre followed by the clause
// "ks ≠ k": one literal per key bit, true when that bit differs from k.
func blockingClause(ks []cnf.Lit, k []bool, pre ...cnf.Lit) []cnf.Lit {
	clause := append(make([]cnf.Lit, 0, len(pre)+len(ks)), pre...)
	for i, l := range ks {
		if k[i] {
			l = l.Not()
		}
		clause = append(clause, l)
	}
	return clause
}

// enumerate lists the keys consistent with every asserted constraint via
// blocking clauses, starting from first, up to limit (> 0) keys. exact
// reports that no further key exists. When the context cuts the
// enumeration short it returns the stop reason; the list is then a valid
// but possibly incomplete prefix, reported inexact.
func (m *miter) enumerate(ctx context.Context, first []bool, limit int) (keys [][]bool, exact bool, stop StopReason) {
	keys = [][]bool{append([]bool(nil), first...)}
	if !m.block(first) {
		return keys, true, StopNone
	}
	for {
		switch st := m.s.SolveCtx(ctx); {
		case st == sat.Unknown:
			return keys, false, ctxStopReason(ctx)
		case st == sat.Unsat:
			return keys, true, StopNone
		case len(keys) == limit:
			return keys, false, StopNone // the limit is reached and a key remains
		}
		k := m.e.ModelBits(m.k1)
		keys = append(keys, k)
		if !m.block(k) {
			return keys, true, StopNone
		}
	}
}

// sortKeys orders bit vectors lexicographically (false < true).
func sortKeys(keys [][]bool) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		for k := range a {
			if a[k] != b[k] {
				return b[k]
			}
		}
		return false
	})
}
