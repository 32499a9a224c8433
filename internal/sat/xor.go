// XOR layer: native GF(2) parity constraints beside the CNF watch-list
// engine, in the cryptominisat style. Each constraint is a row
// "XOR(vars) = rhs". AddXor normalizes a row — signs folded into rhs,
// duplicate pairs cancelled, level-0 assignments folded out — and stores
// it in that sparse form, with no elimination against earlier rows:
// circuit parity rows chain through shared low-index variables, and
// eliminating those would densify the stored system, turning every
// implication reason into a near-full-width clause and poisoning conflict
// analysis. A row that depends on earlier ones is stored like any other;
// one that contradicts them is found by search. During search each row
// watches two of its variables; when a watched variable is assigned the
// row is scanned from its first variable until a second unassigned one
// turns up: with one unassigned variable left the forced value is
// enqueued (reason materialized lazily, see reasonFor), with none left
// and wrong parity a conflict clause is synthesized for the standard
// first-UIP analysis. Scanning the row's values — rather than trusting
// the watched pair — keeps propagation complete when both watches of a
// row are assigned within one propagation batch. Synthesized clauses are
// written into the solver's xorBuf and passed around as crefXor, so they
// allocate nothing.
package sat

import (
	"slices"

	"dynunlock/internal/cnf"
)

// xorRow is one parity constraint XOR(vars) = rhs, its variables being
// xorPool[off : off+n], distinct and sorted ascending. Rows are immutable
// once stored apart from their watches (reason indices into xorRows stay
// valid for the solver's lifetime).
type xorRow struct {
	off, n int32
	watch  [2]int32 // the two watched variables, always distinct row members
	rhs    bool
}

// AddXor adds the parity constraint "XOR of the literal values = rhs".
// Negated literals fold their sign into rhs, duplicate variables cancel,
// and level-0 assignments fold into rhs (they never backtrack). An empty
// remainder is a tautology or fails the solver, a unit remainder enqueues
// its forced literal, and any longer one is stored and watched as it
// stands. Like AddClause it returns false when the solver becomes (or
// already is) inconsistent at the top level.
func (s *Solver) AddXor(lits []cnf.Lit, rhs bool) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	vars := s.xorBufA[:0]
	for _, l := range lits {
		s.ensureVars(l.Var())
		if l.Sign() {
			rhs = !rhs
		}
		vars = append(vars, int32(l.Var()))
	}
	s.xorBufA = vars
	slices.Sort(vars)
	// Cancel duplicate pairs: v ⊕ v = 0.
	out := vars[:0]
	for i := 0; i < len(vars); {
		if i+1 < len(vars) && vars[i] == vars[i+1] {
			i += 2
			continue
		}
		out = append(out, vars[i])
		i++
	}
	vars = out
	vars, rhs = s.xorFoldAssigned(vars, rhs)
	if len(vars) <= 1 {
		return s.xorFinishSmall(vars, rhs)
	}
	s.xorStore(vars, rhs)
	return true
}

// xorStore copies a normalized row (≥2 distinct sorted unassigned
// variables) into the pool and attaches it to the watch lists.
func (s *Solver) xorStore(vars []int32, rhs bool) {
	ri := int32(len(s.xorRows))
	s.xorRows = append(reserve(s.xorRows, 1), xorRow{
		off: int32(len(s.xorPool)), n: int32(len(vars)),
		watch: [2]int32{vars[0], vars[1]}, rhs: rhs,
	})
	s.xorPool = append(reserve(s.xorPool, len(vars)), vars...)
	s.xwatches.push(int(vars[0]), ri)
	s.xwatches.push(int(vars[1]), ri)
}

// xorFoldAssigned drops level-0 assigned variables from a row, folding
// their values into rhs. Must be called at decision level 0.
func (s *Solver) xorFoldAssigned(vars []int32, rhs bool) ([]int32, bool) {
	n := 0
	for _, v := range vars {
		switch s.varValue(v) {
		case lTrue:
			rhs = !rhs
		case lFalse:
			// drop
		default:
			vars[n] = v
			n++
		}
	}
	return vars[:n], rhs
}

// xorFinishSmall resolves a row reduced to ≤1 variables: empty rows are
// tautological or inconsistent, unit rows force their variable at level 0.
func (s *Solver) xorFinishSmall(vars []int32, rhs bool) bool {
	if len(vars) == 0 {
		if rhs {
			s.ok = false
			return false
		}
		return true
	}
	s.uncheckedEnqueue(cnf.MkLit(int(vars[0]), !rhs), crefUndef)
	if s.propagate() != crefUndef {
		s.ok = false
		return false
	}
	return true
}

// NumXors returns the number of parity rows currently stored and watched
// (rows that fold to one variable or none store nothing).
func (s *Solver) NumXors() int { return len(s.xorRows) }

// propagateXor scans every XOR row watching the just-assigned variable of
// p. Unit rows enqueue their forced literal; a violated row returns a
// synthesized conflict clause (all literals false under the current
// assignment, including at least one at the current decision level — the
// trigger variable itself).
func (s *Solver) propagateXor(p cnf.Lit) cref {
	v := int32(p.Var())
	ws := s.xwatches.list(int(v))
	if len(ws) == 0 {
		return crefUndef
	}
	vals := s.vals
	n := 0
	for i := 0; i < len(ws); i++ {
		ri := ws[i]
		row := &s.xorRows[ri]
		vars := s.xorPool[row.off : row.off+row.n]
		// Scan until a second unassigned variable turns up: the row is then
		// neither unit nor violated, and u1, u2 are its first two unassigned
		// variables in row order. A complete scan leaves the row's parity.
		parity := row.rhs
		u1, u2 := int32(-1), int32(-1)
	scan:
		for _, u := range vars {
			switch vals[u<<1] {
			case lUndef:
				if u1 >= 0 {
					u2 = u
					break scan
				}
				u1 = u
			case lTrue:
				parity = !parity
			}
		}
		switch {
		case u1 < 0:
			// parity is rhs ⊕ sum(values): true means the row is violated.
			if parity {
				s.Stats.XorConflicts++
				for ; i < len(ws); i++ {
					ws[n] = ws[i]
					n++
				}
				s.xwatches.setLen(int(v), n)
				return s.xorConflict(vars)
			}
			ws[n] = ri
			n++
		case u2 < 0:
			// The one unassigned variable must restore the parity.
			s.Stats.XorPropagations++
			s.reasonX[u1] = ri + 1
			s.uncheckedEnqueue(cnf.MkLit(int(u1), !parity), crefUndef)
			ws[n] = ri
			n++
		case row.watch[0] == v || row.watch[1] == v:
			// ≥2 unassigned: move this watch onto the first unassigned
			// variable that is not the other watch, so the next relevant
			// assignment re-triggers the scan.
			slot := 0
			if row.watch[1] == v {
				slot = 1
			}
			u := u1
			if u == row.watch[1-slot] {
				u = u2
			}
			row.watch[slot] = u
			if s.xwatches.push(int(u), ri) {
				// The push repacked the slab: view v's list again.
				ws = s.xwatches.list(int(v))
			}
		default:
			// A stale entry: v is no longer watched by this row.
			ws[n] = ri
			n++
		}
	}
	if n < len(ws) {
		s.xwatches.setLen(int(v), n)
	}
	return crefUndef
}

// falseLit returns the literal of variable u that is false under the
// current assignment.
func (s *Solver) falseLit(u int32) cnf.Lit {
	l := cnf.Lit(u << 1)
	if s.vals[l] == lTrue {
		return l ^ 1
	}
	return l
}

// xorConflict materializes a violated row as a clause in xorBuf: one
// literal per row variable, each false under the current assignment.
func (s *Solver) xorConflict(vars []int32) cref {
	buf := s.xorBuf[:0]
	for _, u := range vars {
		buf = append(buf, s.falseLit(u))
	}
	s.xorBuf = buf
	return crefXor
}

// xorReason materializes the reason for an XOR-implied variable v in
// xorBuf: the implied literal (true under the current assignment) first,
// then the falsified antecedent literals — the shape analyze and
// minimization expect from CNF reasons. Synthesized reasons never enter
// the clause database, so reduceDB and locked() are unaffected.
func (s *Solver) xorReason(v int32, row *xorRow) cref {
	buf := append(s.xorBuf[:0], s.falseLit(v)^1)
	for _, u := range s.xorPool[row.off : row.off+row.n] {
		if u != v {
			buf = append(buf, s.falseLit(u))
		}
	}
	s.xorBuf = buf
	return crefXor
}

// reasonFor returns the reason clause of an assigned variable: the stored
// CNF reason, a lazily materialized XOR reason (crefXor, overwriting the
// previous one), or crefUndef for decisions and top-level facts.
func (s *Solver) reasonFor(v int) cref {
	if r := s.reason[v]; r != crefUndef {
		return r
	}
	if ri := s.reasonX[v]; ri != 0 {
		return s.xorReason(int32(v), &s.xorRows[ri-1])
	}
	return crefUndef
}
