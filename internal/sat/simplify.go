package sat

// Simplify performs level-0 inprocessing: after completing top-level unit
// propagation it removes every clause satisfied by the level-0 trail,
// strengthens the remainder by deleting their falsified literals, and
// compacts the watcher lists of the removed clauses. Both the problem and
// learnt databases are processed. XOR rows are left untouched — they
// self-reduce against assigned variables during propagation and carry
// their own watch scheme.
//
// The attack loop calls this between DIPs: each oracle response is
// asserted as units, whose consequences permanently satisfy or shorten a
// swath of the clauses added for earlier circuit copies. Removing them
// here keeps propagation from revisiting dead clauses on every later
// solve.
//
// Simplify is an equivalence-preserving transformation, so search results
// (and candidate sets) are unchanged; only the traversal cost drops. It
// returns false if the formula is already unsatisfiable at the top level.
func (s *Solver) Simplify() bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	if s.propagate() != crefUndef {
		s.ok = false
		return false
	}
	s.Stats.SimplifyCalls++
	s.clauses = s.cleanDB(s.clauses)
	s.learnts = s.cleanDB(s.learnts)
	s.maybeCompact()
	// Counters changed outside a Solve call: deliver them to the telemetry
	// hook now rather than at the next solve boundary.
	s.flushHook()
	return true
}

// cleanDB drops satisfied clauses from cs and strengthens survivors,
// preserving order. After complete level-0 propagation a non-satisfied
// clause cannot have an assigned watched literal (it would have been unit),
// so strengthening only ever trims positions >= 2 and the watch lists of
// survivors stay valid as-is.
func (s *Solver) cleanDB(cs []cref) []cref {
	kept := cs[:0]
	for _, cr := range cs {
		lits := s.lits(cr)
		satisfied := false
		for _, l := range lits {
			if s.value(l) == lTrue {
				satisfied = true
				break
			}
		}
		if satisfied {
			if s.locked(cr) {
				// The clause is the stored reason of a level-0 literal.
				// Level-0 assignments are permanent and never re-examined
				// by conflict analysis, so the reference can be dropped
				// rather than dangled.
				s.reason[lits[0].Var()] = crefUndef
			}
			s.detach(cr)
			s.freeClause(cr)
			s.Stats.SimplifyRemoved++
			continue
		}
		n := 2
		for k := 2; k < len(lits); k++ {
			if s.value(lits[k]) == lFalse {
				s.Stats.SimplifyStrengthened++
				continue
			}
			lits[n] = lits[k]
			n++
		}
		s.shrinkClause(cr, n)
		kept = append(kept, cr)
	}
	return kept
}
