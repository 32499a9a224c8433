// Package sat implements a conflict-driven clause-learning (CDCL) SAT
// solver in the MiniSat lineage: two-watched-literal propagation, VSIDS
// branching with phase saving, first-UIP conflict analysis with clause
// minimization, Luby restarts, and LBD-guided learnt-clause database
// reduction. It supports incremental solving under assumptions, which the
// oracle-guided SAT attack uses to add distinguishing-input constraints
// between calls.
//
// The solver exists because the reproduction environment provides no
// importable SAT solver; the paper used lingeling. Iteration and candidate
// counts of the attack are solver-independent; only wall-clock scale
// differs.
package sat

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync/atomic"

	"dynunlock/internal/cnf"
)

// Status is the result of a Solve call.
type Status int8

// Solve outcomes.
const (
	Unknown Status = iota // budget exhausted
	Sat
	Unsat
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

// Stats accumulates solver counters across Solve calls.
type Stats struct {
	Decisions    uint64
	Propagations uint64
	Conflicts    uint64
	Restarts     uint64
	Learnt       uint64
	Removed      uint64
	// XorPropagations counts literals implied by unit XOR rows;
	// XorConflicts counts conflicts raised by violated XOR rows. Both are
	// zero on pure-CNF instances.
	XorPropagations uint64
	XorConflicts    uint64
	// SimplifyCalls counts Solver.Simplify invocations; SimplifyRemoved
	// counts clauses removed as satisfied at the top level;
	// SimplifyStrengthened counts falsified literals deleted from
	// surviving clauses. All are zero unless the caller opts into
	// inprocessing.
	SimplifyCalls        uint64
	SimplifyRemoved      uint64
	SimplifyStrengthened uint64
}

// Solver is an incremental CDCL SAT solver. The zero value is not usable;
// call New.
type Solver struct {
	ok bool

	// Clause arena (arena.go): problem and learnt clauses by reference,
	// the number of dead arena words awaiting compaction, and the number
	// of compactions run so far.
	arena       []cnf.Lit
	clauses     []cref
	learnts     []cref
	wasted      int
	compactions int

	watches  [][]watcher // indexed by cnf.Lit
	vals     []lbool     // indexed by cnf.Lit: vals[l] is l's value
	polarity []bool      // saved phase, true = last assigned false
	activity []float64
	level    []int32
	reason   []cref
	seen     []byte

	// XOR layer (xor.go): stored parity rows in their original sparse form
	// (what search propagates over) with their variables in xorPool, the
	// echelon-reduced shadow system used only inside AddXor for
	// dependence/inconsistency detection with its pivot-variable index,
	// per-variable row watch lists, and per-variable lazy reasons (xorRows
	// index + 1; 0 = not XOR-implied).
	xorRows    []xorRow
	xorPool    []int32
	xorEch     []xorEchRow
	xorEchPool []int32
	xorPivot   map[int32]int32 // pivot variable → xorEch index
	xwatches   [][]int32       // indexed by variable
	reasonX    []int32         // indexed by variable

	// Scratch buffers owned by the solver so that conflicts allocate
	// nothing: the clause synthesized from an XOR row (crefXor), analyze's
	// learnt clause and seen-variable list, lbd's per-level stamps,
	// AddClause normalization, and AddXor normalization and reduction.
	xorBuf     []cnf.Lit
	learntBuf  []cnf.Lit
	toClear    []int
	levelStamp []uint32
	stamp      uint32
	addBuf     []cnf.Lit
	xorBufA    []int32
	xorBufB    []int32
	xorBufC    []int32

	order    *varHeap
	varInc   float64
	varDecay float64

	claInc   float64
	claDecay float64

	trail    []cnf.Lit
	trailLim []int
	qhead    int

	maxLearnts   float64
	learntGrowth float64

	// Glucose-style restart state: exponential moving averages of learnt-
	// clause LBD (fast/slow) and of trail size at conflicts.
	lbdFast, lbdSlow float64
	trailAvg         float64

	model    []bool
	conflict []cnf.Lit // final conflict clause over assumptions

	// ConflictBudget, when positive, bounds the total number of conflicts a
	// Solve call may spend before returning Unknown.
	ConflictBudget int64

	// interrupt stops the search at its next check point; SolveCtx's
	// watcher goroutine sets it when the context is done.
	interrupt atomic.Bool

	hook     *Hook
	hookMark Stats

	Stats Stats
}

// Hook receives sampled telemetry from the search loop for live metrics.
// It is strictly observational: callbacks see counter snapshots and may
// not touch the solver. With no hook installed the search loop pays one
// nil check per conflict; with one installed, callbacks fire only every
// Every conflicts (plus once per Solve return), keeping the overhead far
// below the cost of the conflicts themselves.
type Hook struct {
	// Every is the conflict sampling interval for OnSample (0 = 256).
	Every uint64
	// LearntEvery is the conflict sampling interval for OnLearnt (0 = 16).
	LearntEvery uint64
	// OnSample receives the counter growth since the previous sample and
	// the current learnt-clause DB size. Also called at the end of every
	// Solve, so totals converge exactly at solve boundaries.
	OnSample func(delta Stats, learntDB int)
	// OnLearnt receives the LBD and literal count of sampled learnt
	// clauses (an LBD histogram source).
	OnLearnt func(lbd int32, size int)
}

// SetHook installs (or, with nil, removes) the telemetry hook. The hook
// never alters solver behavior: search trajectories with and without a
// hook are bit-identical.
func (s *Solver) SetHook(h *Hook) {
	s.hook = h
	s.hookMark = s.Stats
}

// hookConflict fires the sampled hook callbacks after a conflict has been
// recorded. Kept out of the search loop body so the no-hook path stays a
// single branch.
func (s *Solver) hookConflict(lbd int32, size int) {
	h := s.hook
	if h.OnLearnt != nil {
		every := h.LearntEvery
		if every == 0 {
			every = 16
		}
		if s.Stats.Conflicts%every == 0 {
			h.OnLearnt(lbd, size)
		}
	}
	if h.OnSample != nil {
		every := h.Every
		if every == 0 {
			every = 256
		}
		if s.Stats.Conflicts%every == 0 {
			s.flushHook()
		}
	}
}

// flushHook delivers the counter growth since the previous sample.
func (s *Solver) flushHook() {
	h := s.hook
	if h == nil || h.OnSample == nil {
		return
	}
	d := Stats{
		Decisions:       s.Stats.Decisions - s.hookMark.Decisions,
		Propagations:    s.Stats.Propagations - s.hookMark.Propagations,
		Conflicts:       s.Stats.Conflicts - s.hookMark.Conflicts,
		Restarts:        s.Stats.Restarts - s.hookMark.Restarts,
		Learnt:          s.Stats.Learnt - s.hookMark.Learnt,
		Removed:         s.Stats.Removed - s.hookMark.Removed,
		XorPropagations: s.Stats.XorPropagations - s.hookMark.XorPropagations,
		XorConflicts:    s.Stats.XorConflicts - s.hookMark.XorConflicts,

		SimplifyCalls:        s.Stats.SimplifyCalls - s.hookMark.SimplifyCalls,
		SimplifyRemoved:      s.Stats.SimplifyRemoved - s.hookMark.SimplifyRemoved,
		SimplifyStrengthened: s.Stats.SimplifyStrengthened - s.hookMark.SimplifyStrengthened,
	}
	s.hookMark = s.Stats
	h.OnSample(d, len(s.learnts))
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{
		ok:           true,
		varInc:       1.0,
		varDecay:     0.95,
		claInc:       1.0,
		claDecay:     0.999,
		learntGrowth: 1.1,
	}
	s.order = newVarHeap(nil)
	return s
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.level)
	if v == cap(s.level) {
		s.growVars(max(2*v, 16))
	}
	s.vals = append(s.vals, lUndef, lUndef)
	s.polarity = append(s.polarity, true) // branch false first (MiniSat convention)
	s.activity = append(s.activity, 0)
	s.order.act = s.activity // the heap reads the new length
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.reasonX = append(s.reasonX, 0)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.xwatches = append(s.xwatches, nil)
	s.order.insert(v)
	return v
}

// growVars moves every per-variable array, the decision heap's two
// included, to storage with room for n variables. NewVar calls it with
// double the current count whenever the arrays are full, so they grow
// together and each append in between stays in place: an attack's
// variables cost about twice their final arrays in allocation, where
// append's own 1.25× growth costs five times.
func (s *Solver) growVars(n int) {
	s.vals = withCap(s.vals, 2*n)
	s.polarity = withCap(s.polarity, n)
	s.activity = withCap(s.activity, n)
	s.level = withCap(s.level, n)
	s.reason = withCap(s.reason, n)
	s.reasonX = withCap(s.reasonX, n)
	s.seen = withCap(s.seen, n)
	s.watches = withCap(s.watches, 2*n)
	s.xwatches = withCap(s.xwatches, n)
	s.order.heap = withCap(s.order.heap, n)
	s.order.indices = withCap(s.order.indices, n)
}

// withCap returns a copy of a with capacity n.
func withCap[T any](a []T, n int) []T {
	b := make([]T, len(a), n)
	copy(b, a)
	return b
}

// NumVars returns the number of variables allocated.
func (s *Solver) NumVars() int { return len(s.level) }

// ensureVars allocates variables up to and including v.
func (s *Solver) ensureVars(v int) {
	for len(s.level) <= v {
		s.NewVar()
	}
}

func (s *Solver) value(l cnf.Lit) lbool { return s.vals[l] }

// varValue returns the value of variable v (its positive literal).
func (s *Solver) varValue(v int32) lbool { return s.vals[v<<1] }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a problem clause. It returns false if the solver is
// already in an unsatisfiable state at the top level. Clauses may be added
// between Solve calls (incremental use).
func (s *Solver) AddClause(lits ...cnf.Lit) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	// Normalize: sort, dedupe, drop false-at-top-level literals, detect
	// tautologies and satisfied clauses.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	for _, l := range ls {
		s.ensureVars(l.Var())
	}
	slices.Sort(ls)
	out := ls[:0]
	var prev cnf.Lit = -1
	for _, l := range ls {
		switch {
		case s.value(l) == lTrue || l == prev.Not() && prev != -1:
			return true // satisfied or tautological
		case s.value(l) == lFalse || l == prev:
			continue // false at level 0, or duplicate
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], crefUndef)
		if s.propagate() != crefUndef {
			s.ok = false
			return false
		}
		return true
	}
	cr := s.allocClause(out, false)
	s.clauses = append(s.clauses, cr)
	s.attach(cr)
	return true
}

// AddFormula adds every clause and XOR constraint of f, allocating
// variables as needed.
func (s *Solver) AddFormula(f *cnf.Formula) bool {
	s.ensureVars(f.NumVars - 1)
	for _, c := range f.Clauses {
		if !s.AddClause(c...) {
			return false
		}
	}
	for _, x := range f.Xors {
		if !s.AddXor(x, true) {
			return false
		}
	}
	return s.ok
}

func (s *Solver) attach(cr cref) {
	lits := s.lits(cr)
	w0, w1 := lits[0], lits[1]
	s.watches[w0.Not()] = append(s.watches[w0.Not()], watcher{cr, w1})
	s.watches[w1.Not()] = append(s.watches[w1.Not()], watcher{cr, w0})
}

func (s *Solver) detach(cr cref) {
	lits := s.lits(cr)
	for _, w := range [2]cnf.Lit{lits[0].Not(), lits[1].Not()} {
		ws := s.watches[w]
		for i := range ws {
			if ws[i].cr == cr {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

func (s *Solver) uncheckedEnqueue(p cnf.Lit, from cref) {
	s.vals[p] = lTrue
	s.vals[p^1] = lFalse
	v := p.Var()
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, p)
}

// propagate performs unit propagation; it returns the conflicting clause or
// crefUndef.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		// Parity rows first: XOR conflicts surface on a shorter trail,
		// before this literal's CNF consequences pile further assignments
		// onto the current level, which keeps the learnt clauses from the
		// parity-heavy lock logic tight.
		if len(s.xorRows) > 0 {
			if confl := s.propagateXor(p); confl != crefUndef {
				s.qhead = len(s.trail)
				return confl
			}
		}
		ws := s.watches[p]
		falseLit := p.Not()
		vals, arena := s.vals, s.arena
		n := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if vals[w.blocker] == lTrue {
				ws[n] = w
				n++
				continue
			}
			cr := w.cr
			lits := arena[cr+hdrWords : cr+hdrWords+cref(uint32(arena[cr])>>2)]
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && vals[first] == lTrue {
				ws[n] = watcher{cr, first}
				n++
				continue
			}
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nw := lits[1].Not()
					s.watches[nw] = append(s.watches[nw], watcher{cr, first})
					continue nextWatcher
				}
			}
			// No new watch: clause is unit or conflicting.
			ws[n] = watcher{cr, first}
			n++
			if vals[first] == lFalse {
				// Conflict: copy remaining watchers and bail.
				for i++; i < len(ws); i++ {
					ws[n] = ws[i]
					n++
				}
				s.watches[p] = ws[:n]
				s.qhead = len(s.trail)
				return cr
			}
			s.uncheckedEnqueue(first, cr)
		}
		if n < len(ws) {
			s.watches[p] = ws[:n]
		}
	}
	return crefUndef
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		p := s.trail[i]
		v := p.Var()
		s.vals[p] = lUndef
		s.vals[p^1] = lUndef
		s.polarity[v] = p.Sign()
		s.reason[v] = crefUndef
		s.reasonX[v] = 0
		s.order.insert(v)
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.qhead = len(s.trail)
	s.trailLim = s.trailLim[:lvl]
}

func (s *Solver) varBump(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.bump(v)
}

func (s *Solver) claBump(cr cref) {
	act := s.claAct(cr) + s.claInc
	s.setClaAct(cr, act)
	if act > 1e20 {
		for _, l := range s.learnts {
			s.setClaAct(l, s.claAct(l)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (asserting literal first) and the backtrack level. The clause is a view
// of learntBuf, valid until the next call.
func (s *Solver) analyze(confl cref) ([]cnf.Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // placeholder for asserting literal
	pathC := 0
	var p cnf.Lit = -1
	index := len(s.trail) - 1
	for {
		lits := s.lits(confl)
		start := 0
		if p != -1 {
			start = 1
		}
		if confl != crefXor && s.isLearnt(confl) {
			s.claBump(confl)
		}
		for _, q := range lits[start:] {
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.varBump(v)
				s.seen[v] = 1
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for s.seen[s.trail[index].Var()] == 0 {
			index--
		}
		p = s.trail[index]
		index--
		confl = s.reasonFor(p.Var())
		s.seen[p.Var()] = 0
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Clause minimization (local): drop literals implied by the rest.
	toClear := s.toClear[:0]
	for _, l := range learnt {
		toClear = append(toClear, l.Var())
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		r := s.reasonFor(v)
		if r == crefUndef {
			learnt[j] = learnt[i]
			j++
			continue
		}
		redundant := true
		for _, q := range s.lits(r)[1:] {
			if s.seen[q.Var()] == 0 && s.level[q.Var()] > 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			learnt[j] = learnt[i]
			j++
		}
	}
	s.learntBuf = learnt
	learnt = learnt[:j]
	for _, v := range toClear {
		s.seen[v] = 0
	}
	s.toClear = toClear

	// Backtrack level: highest level among the non-asserting literals.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	return learnt, btLevel
}

// analyzeFinal computes the subset of assumptions responsible for falsifying
// p, stored in s.conflict.
func (s *Solver) analyzeFinal(p cnf.Lit) {
	s.conflict = s.conflict[:0]
	s.conflict = append(s.conflict, p)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.Var()] = 1
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if s.seen[v] == 0 {
			continue
		}
		if r := s.reasonFor(v); r == crefUndef {
			s.conflict = append(s.conflict, s.trail[i].Not())
		} else {
			for _, q := range s.lits(r)[1:] {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[p.Var()] = 0
}

// lbd counts the distinct decision levels among lits, stamping each level
// seen in this call.
func (s *Solver) lbd(lits []cnf.Lit) int32 {
	s.stamp++
	if s.stamp == 0 { // wrapped: forget every old stamp
		clear(s.levelStamp)
		s.stamp = 1
	}
	n := int32(0)
	for _, l := range lits {
		lv := int(s.level[l.Var()])
		if lv >= len(s.levelStamp) {
			s.levelStamp = append(s.levelStamp, make([]uint32, lv+1-len(s.levelStamp))...)
		}
		if s.levelStamp[lv] != s.stamp {
			s.levelStamp[lv] = s.stamp
			n++
		}
	}
	return n
}

func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		a, b := s.learnts[i], s.learnts[j]
		la, lb := s.clauseLBD(a), s.clauseLBD(b)
		if (la <= 2) != (lb <= 2) {
			return la <= 2
		}
		na, nb := s.clauseSize(a), s.clauseSize(b)
		if (na == 2) != (nb == 2) {
			return na == 2
		}
		return s.claAct(a) > s.claAct(b)
	})
	keep := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, cr := range s.learnts {
		// Glue and binary clauses sort to the front and survive while the
		// budget allows; beyond the halfway point only clauses that are
		// the reason for a current assignment are exempt. (A blanket
		// exemption for low-LBD clauses would let XOR-heavy instances,
		// whose learnt clauses are mostly glue, defeat the reduction and
		// thrash this routine.)
		if i < limit || s.locked(cr) {
			keep = append(keep, cr)
		} else {
			s.detach(cr)
			s.freeClause(cr)
			s.Stats.Removed++
		}
	}
	s.learnts = keep
	// If locked clauses alone exceed the budget, grow it to avoid calling
	// reduceDB on every decision.
	if float64(len(s.learnts)) >= s.maxLearnts {
		s.maxLearnts = float64(len(s.learnts)) * 1.5
	}
	s.maybeCompact()
}

func (s *Solver) locked(cr cref) bool {
	l0 := s.lits(cr)[0]
	return s.value(l0) == lTrue && s.reason[l0.Var()] == cr
}

// pickBranchVar returns the unassigned variable with the highest activity.
func (s *Solver) pickBranchVar() int {
	for !s.order.empty() {
		v := s.order.removeMax()
		if s.varValue(int32(v)) == lUndef {
			return v
		}
	}
	return -1
}

// luby returns the Luby sequence value for index i (1-based) with unit y.
func luby(y float64, i int) float64 {
	size, seq := 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i = i % size
	}
	p := 1.0
	for k := 0; k < seq; k++ {
		p *= y
	}
	return p
}

// search runs CDCL until a result or until a restart is due: either the
// Luby budget nofConflicts is exhausted or the Glucose condition fires
// (recent learnt-clause LBDs much worse than the long-run average,
// suppressed while the trail is unusually deep, i.e. the solver appears
// close to a model).
func (s *Solver) search(nofConflicts int64, assumptions []cnf.Lit) Status {
	conflictC := int64(0)
	for {
		if s.interrupt.Load() {
			s.cancelUntil(0)
			return Unknown
		}
		confl := s.propagate()
		if confl != crefUndef {
			s.Stats.Conflicts++
			conflictC++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			var lbd int32 = 1
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], crefUndef)
			} else {
				cr := s.allocClause(learnt, true)
				lbd = s.lbd(learnt)
				s.setLBD(cr, lbd)
				s.learnts = append(s.learnts, cr)
				s.attach(cr)
				s.claBump(cr)
				s.uncheckedEnqueue(learnt[0], cr)
				s.Stats.Learnt++
			}
			// Exponential moving averages for the restart policy.
			s.lbdFast += (float64(lbd) - s.lbdFast) / 32
			s.lbdSlow += (float64(lbd) - s.lbdSlow) / 4096
			s.trailAvg += (float64(len(s.trail)) - s.trailAvg) / 4096
			s.varInc /= s.varDecay
			s.claInc /= s.claDecay
			if s.hook != nil {
				s.hookConflict(lbd, len(learnt))
			}
			continue
		}

		// No conflict.
		restart := nofConflicts >= 0 && conflictC >= nofConflicts
		if !restart && conflictC >= 64 && s.Stats.Conflicts > 4096 &&
			s.lbdFast > 1.25*s.lbdSlow &&
			float64(len(s.trail)) < 1.4*s.trailAvg {
			restart = true
		}
		if restart {
			s.cancelUntil(0)
			s.Stats.Restarts++
			return Unknown
		}
		if s.budgetExhausted() {
			s.cancelUntil(0)
			return Unknown
		}
		if float64(len(s.learnts)) >= s.maxLearnts {
			s.reduceDB()
		}

		// Assumptions first, then VSIDS decision.
		var next cnf.Lit = -1
		for s.decisionLevel() < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail)) // dummy level
			case lFalse:
				s.analyzeFinal(p.Not())
				return Unsat
			default:
				next = p
			}
			if next != -1 {
				break
			}
		}
		if next == -1 {
			v := s.pickBranchVar()
			if v == -1 {
				// All variables assigned: model found.
				s.model = make([]bool, s.NumVars())
				for i := range s.model {
					s.model[i] = s.vals[2*i] == lTrue
				}
				return Sat
			}
			s.Stats.Decisions++
			next = cnf.MkLit(v, s.polarity[v])
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, crefUndef)
	}
}

// Solve determines satisfiability under the given assumptions. With no
// assumptions the result is a definitive Sat/Unsat unless ConflictBudget is
// exceeded (Unknown). After Sat, Model/Value are valid; after Unsat under
// assumptions, Conflict returns the failing assumption subset.
func (s *Solver) Solve(assumptions ...cnf.Lit) Status {
	if !s.ok {
		return Unsat
	}
	for _, a := range assumptions {
		s.ensureVars(a.Var())
	}
	s.conflict = s.conflict[:0]
	s.model = nil
	s.maxLearnts = float64(len(s.clauses)) / 3
	if s.maxLearnts < 1000 {
		s.maxLearnts = 1000
	}
	status := Unknown
	for restarts := 0; status == Unknown; restarts++ {
		if s.interrupt.Load() {
			break
		}
		if s.budgetExhausted() {
			break
		}
		status = s.search(int64(luby(2, restarts)*100), assumptions)
		s.maxLearnts *= s.learntGrowth
	}
	s.cancelUntil(0)
	if s.hook != nil {
		// Flush the residual sample so published totals match Stats exactly
		// at every solve boundary, however short the solve.
		s.flushHook()
	}
	return status
}

// budgetExhausted reports whether a configured conflict budget has been
// spent.
func (s *Solver) budgetExhausted() bool {
	return s.ConflictBudget > 0 && int64(s.Stats.Conflicts) >= s.ConflictBudget
}

// SolveCtx is Solve with context-scoped cancellation: a watcher goroutine
// observes ctx.Done and sets the solver's interrupt flag, and the
// in-flight search returns Unknown at its next check point. The watcher is
// joined before SolveCtx returns and the flag is cleared when the context
// was the cause, so the solver stays reusable for later Solve/SolveCtx
// calls.
//
// A context that can never be cancelled (ctx.Done() == nil, e.g.
// context.Background()) takes the plain Solve path with no goroutine and
// no extra synchronization — bit-for-bit the sequential behavior.
func (s *Solver) SolveCtx(ctx context.Context, assumptions ...cnf.Lit) Status {
	if ctx == nil || ctx.Done() == nil {
		return s.Solve(assumptions...)
	}
	if ctx.Err() != nil {
		return Unknown
	}
	quit := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-ctx.Done():
			s.interrupt.Store(true)
		case <-quit:
		}
	}()
	st := s.Solve(assumptions...)
	close(quit)
	<-watcherDone
	if st == Unknown && ctx.Err() != nil {
		// The interrupt belongs to this call's context; clear it so the
		// solver is not poisoned for subsequent calls.
		s.interrupt.Store(false)
	}
	return st
}

// Model returns the satisfying assignment from the last Sat result,
// indexed by variable. The slice is owned by the solver.
func (s *Solver) Model() []bool {
	if s.model == nil {
		panic("sat: Model called without a SAT result")
	}
	return s.model
}

// Value returns variable v's value in the last model.
func (s *Solver) Value(v int) bool {
	if s.model == nil {
		panic("sat: Value called without a SAT result")
	}
	if v >= len(s.model) {
		return false
	}
	return s.model[v]
}

// Conflict returns the failed assumption literals (negated) from the last
// assumption-UNSAT result.
func (s *Solver) Conflict() []cnf.Lit { return s.conflict }

// Okay reports whether the solver is still consistent at the top level.
func (s *Solver) Okay() bool { return s.ok }

// NumClauses returns the number of problem clauses currently attached.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// String summarizes solver state.
func (s *Solver) String() string {
	return fmt.Sprintf("sat.Solver{vars: %d, clauses: %d, learnts: %d, conflicts: %d}",
		s.NumVars(), len(s.clauses), len(s.learnts), s.Stats.Conflicts)
}

// BumpActivity raises a variable's VSIDS activity, biasing the branching
// order toward it. Attack drivers use this to make the solver resolve key
// variables first, which shortens miter searches.
func (s *Solver) BumpActivity(v int, amount float64) {
	s.ensureVars(v)
	s.activity[v] += amount * s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.bump(v)
}

// WriteDimacs dumps the current problem — top-level unit assignments,
// problem clauses (learnt clauses excluded), and XOR rows as cryptominisat
// "x ..." lines — in DIMACS CNF format. The paper's methodology dumps the
// CNF after each attack iteration to inspect recovered seed bits; satattack
// exposes this through its DumpCNF option. XOR rows are emitted as stored:
// the sparse originals AddXor kept (signs folded into the right-hand side,
// duplicate pairs cancelled, variables assigned at level 0 when the row
// was added folded out), not their echelon-reduced forms, which AddXor
// keeps only to detect dependence. A row that was dependent when added
// stored nothing and a unit remainder became a unit line, so together
// with the unit lines the dump is equivalent to the constraints as added.
func (s *Solver) WriteDimacs(w io.Writer) error {
	bw := bufio.NewWriter(w)
	units := 0
	if len(s.trailLim) == 0 {
		units = len(s.trail)
	} else {
		units = s.trailLim[0]
	}
	if !s.ok {
		fmt.Fprintf(bw, "p cnf %d 1\n0\n", s.NumVars())
		return bw.Flush()
	}
	fmt.Fprintf(bw, "p cnf %d %d\n", s.NumVars(), len(s.clauses)+units+len(s.xorRows))
	for i := 0; i < units; i++ {
		fmt.Fprintf(bw, "%d 0\n", s.trail[i].Dimacs())
	}
	for _, cr := range s.clauses {
		for _, l := range s.lits(cr) {
			fmt.Fprintf(bw, "%d ", l.Dimacs())
		}
		fmt.Fprintln(bw, 0)
	}
	for i := range s.xorRows {
		row := &s.xorRows[i]
		// The XOR of the listed literals must be true: a false rhs is
		// folded into the first literal's sign.
		bw.WriteString("x")
		for i, v := range s.xorPool[row.off : row.off+row.n] {
			fmt.Fprintf(bw, " %d", cnf.MkLit(int(v), i == 0 && !row.rhs).Dimacs())
		}
		fmt.Fprintln(bw, " 0")
	}
	return bw.Flush()
}
