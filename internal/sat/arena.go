package sat

import (
	"math"

	"dynunlock/internal/cnf"
)

// Clause arena: every clause, problem or learnt, lives in one []cnf.Lit
// slab (Solver.arena) and is addressed by a cref, the index of its header
// word, in the style of MiniSat's ClauseAllocator. The literals follow the
// header. A problem clause is its header and literals; a learnt clause
// keeps its LBD and activity in the learntWords words before its header:
//
//	arena[cr-3]      LBD (learnt only)
//	arena[cr-2..-1]  float64 activity, low word first (learnt only)
//	arena[cr+0]      size<<2 | flagDeleted | flagLearnt
//	arena[cr+1..]    the literals, watched pair first
//
// A removed clause is detached at once and marked deleted, and Simplify's
// strengthening shrinks a clause in place; both leave dead words behind,
// counted in Solver.wasted. Once a fifth of the arena is dead, compact
// copies the live clauses into the spare slab (Solver.spare), or into a
// new one when the spare is too small, and rewrites every cref the solver
// holds: watchers (in place, so watch order is untouched), reasons,
// clauses and learnts. The old slab becomes the next spare. Crefs are
// never compared for order, so compaction cannot change the search.
// Between compactions the arena grows by doubling (reserve).
type cref uint32

const (
	// learntWords is the number of words before a learnt clause's header.
	learntWords = 3

	flagLearnt  = 1
	flagDeleted = 2

	// crefUndef marks "no clause": decisions, top-level facts and
	// XOR-implied literals have it as their CNF reason.
	crefUndef cref = math.MaxUint32
	// crefXor stands for the clause most recently synthesized from an XOR
	// row into Solver.xorBuf (a conflict or a lazily built reason). It
	// never enters the arena, the watch lists or the reason array.
	crefXor cref = math.MaxUint32 - 1
)

// watcher is one watch-list entry: watches[p] lists the clauses watching
// ¬p, visited when p becomes true. A true blocker literal satisfies the
// clause without touching its literals.
type watcher struct {
	cr      cref
	blocker cnf.Lit
}

// allocClause appends a clause to the arena and returns its reference.
func (s *Solver) allocClause(lits []cnf.Lit, learnt bool) cref {
	h := cnf.Lit(len(lits) << 2)
	if learnt {
		s.arena = append(reserve(s.arena, learntWords+1+len(lits)), 0, 0, 0)
		h |= flagLearnt
	} else {
		s.arena = reserve(s.arena, 1+len(lits))
	}
	cr := cref(len(s.arena))
	s.arena = append(s.arena, h)
	s.arena = append(s.arena, lits...)
	return cr
}

// lits returns the literals of a clause as a view into the arena (or into
// xorBuf for crefXor); writes through it reorder the stored clause.
func (s *Solver) lits(cr cref) []cnf.Lit {
	if cr == crefXor {
		return s.xorBuf
	}
	n := cref(uint32(s.arena[cr]) >> 2)
	return s.arena[cr+1 : cr+1+n]
}

func (s *Solver) clauseSize(cr cref) int { return int(uint32(s.arena[cr]) >> 2) }

func (s *Solver) isLearnt(cr cref) bool { return s.arena[cr]&flagLearnt != 0 }

// The LBD and activity accessors are for learnt clauses only.

func (s *Solver) clauseLBD(cr cref) int32 { return int32(s.arena[cr-3]) }

func (s *Solver) setLBD(cr cref, lbd int32) { s.arena[cr-3] = cnf.Lit(lbd) }

func (s *Solver) claAct(cr cref) float64 {
	lo, hi := uint32(s.arena[cr-2]), uint32(s.arena[cr-1])
	return math.Float64frombits(uint64(hi)<<32 | uint64(lo))
}

func (s *Solver) setClaAct(cr cref, act float64) {
	b := math.Float64bits(act)
	s.arena[cr-2] = cnf.Lit(uint32(b))
	s.arena[cr-1] = cnf.Lit(uint32(b >> 32))
}

// shrinkClause cuts a clause to its first n literals.
func (s *Solver) shrinkClause(cr cref, n int) {
	s.wasted += s.clauseSize(cr) - n
	s.arena[cr] = cnf.Lit(n<<2) | s.arena[cr]&flagLearnt
}

// freeClause marks a detached clause deleted; its words become garbage.
func (s *Solver) freeClause(cr cref) {
	s.wasted += 1 + s.clauseSize(cr)
	if s.isLearnt(cr) {
		s.wasted += learntWords
	}
	s.arena[cr] |= flagDeleted
}

// maybeCompact compacts the arena once a fifth of it is garbage. Callers
// must hold no literal views into the arena.
func (s *Solver) maybeCompact() {
	if s.wasted*5 > len(s.arena) {
		s.compact()
	}
}

// compact copies the live clauses, problem clauses first, into an arena
// with as much room again, and rewrites every reference to them. The new
// arena is the spare when it has that room, else a new one, and the old
// arena becomes the spare. Each moved clause leaves its new cref in its
// old first literal word, which the watcher and reason passes read.
func (s *Solver) compact() {
	old := s.arena
	next := s.spare[:0]
	if live := len(old) - s.wasted; cap(next) < 2*live {
		next = make([]cnf.Lit, 0, 2*live)
	}
	move := func(crs []cref, pre cref) {
		for i, cr := range crs {
			nc := cref(len(next)) + pre
			next = append(next, old[cr-pre:cr+1+cref(uint32(old[cr])>>2)]...)
			old[cr+1] = cnf.Lit(nc)
			crs[i] = nc
		}
	}
	move(s.clauses, 0)
	move(s.learnts, learntWords)
	// Only the entries inside each list's length: a hole of the watch
	// slab, or the room past a list's length, may hold a stale cref from
	// before an earlier compaction.
	for l := range s.watches.spans {
		ws := s.watches.list(l)
		for i := range ws {
			ws[i].cr = cref(old[ws[i].cr+1])
		}
	}
	for _, p := range s.trail {
		v := p.Var()
		switch r := s.reason[v]; {
		case r == crefUndef:
		case old[r]&flagDeleted != 0:
			// Reasons are locked and never deleted; Simplify clears the
			// level-0 ones it removes. Drop a stray one rather than forward
			// a literal word.
			s.reason[v] = crefUndef
		default:
			s.reason[v] = cref(old[r+1])
		}
	}
	s.arena, s.spare = next, old[:0]
	s.wasted = 0
	s.compactions++
}
