package satattack

import (
	"context"

	"dynunlock/internal/cnf"
	"dynunlock/internal/encode"
	"dynunlock/internal/sat"
	"dynunlock/internal/trace"
)

// minCheckBudget is the floor of the uniqueness check's per-call conflict
// budget; above it the budget is a quarter of the miter's conflicts so
// far, so a check's effort keeps in proportion to the search's.
const minCheckBudget = 2000

// uniqueCheck is the one-copy closing check: a second solver holding a
// single key copy k under the same DIP constraints as the miter. After a DIP it asks whether exactly one key is still
// consistent. A singleton consistent set admits no further DIP, so the
// miter is UNSAT too and the loop can close on the key without that
// proof. The check runs on its own solver so that none of its learnt
// clauses, phases or activities reach the miter: the DIP search is the
// same with the check as without it.
type uniqueCheck struct {
	l *Locked
	s *sat.Solver
	e *encode.Encoder
	k []cnf.Lit
}

// newUniqueCheck takes the check's encoder from checkEncoders and gives it
// one free key copy.
func newUniqueCheck(l *Locked) *uniqueCheck {
	e := acquire(&checkEncoders, nil)
	u := &uniqueCheck{l: l, s: e.S, e: e, k: e.FreshVec(len(l.KeyIdx))}
	// As on the miter: every other variable is a function of the key once
	// a DIP's inputs are constant, so branch on the key first.
	for _, kl := range u.k {
		u.s.BumpActivity(kl.Var(), 1)
	}
	return u
}

// check asserts one DIP's oracle response on the key copy, then asks
// whether one key remains. It runs under one "unique" span carrying the
// check's solver-counter and encode growth, and returns the single
// consistent key, or nil when the loop must go on.
func (u *uniqueCheck) check(ctx context.Context, tr *trace.Tracer, dip, resp []bool, miterConflicts uint64) []bool {
	sp := tr.Start("unique")
	mark := u.s.Stats
	v0, c0 := emitted(u.s)
	u.e.AssertEqualConst(u.e.EncodeAIG(u.l.Graph, u.l.assemble(u.e.ConstVec(dip), u.k)), resp)
	v1, c1 := emitted(u.s)
	key := u.unique(ctx, max(minCheckBudget, int64(miterConflicts/4)))
	addStatsDelta(sp, mark, u.s.Stats)
	sp.Add("encode_vars", v1-v0)
	sp.Add("encode_clauses", c1-c0)
	sp.End()
	return key
}

// unique returns the one key consistent with every asserted constraint,
// or nil when a second key exists, when the constraints admit no key (the
// miter then reports it), or when the budget or ctx cut the check short.
// It solves for a key K, then once more with "k ≠ K" under a fresh
// activation literal, which a unit clause retires afterwards.
func (u *uniqueCheck) unique(ctx context.Context, budget int64) []bool {
	u.s.ConflictBudget = int64(u.s.Stats.Conflicts) + budget
	if u.s.SolveCtx(ctx) != sat.Sat {
		return nil
	}
	key := u.e.ModelBits(u.k)
	act := u.e.Fresh()
	u.s.AddClause(blockingClause(u.k, key, act.Not())...)
	st := u.s.SolveCtx(ctx, act)
	u.s.AddClause(act.Not())
	if st != sat.Unsat {
		return nil
	}
	return key
}
