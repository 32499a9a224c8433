// The attack's solver portfolio: every SAT call of the DIP loop, key
// extraction and candidate enumeration is a race across N diversified
// solver/encoder instances, and RunCtx always runs on one. A race of one
// solves inline on the caller's goroutine and context, which is the plain
// sequential attack. A race of N derives a child context: the first
// instance to return a definitive answer wins and cancels it, and the
// losers' ctx watchers interrupt their searches — so cancelling the parent
// context (deadline, cmd-line -timeout, caller cancellation) tears the
// whole race down through the same mechanism. The winning distinguishing
// input and oracle response — or blocking clause — are replayed into every
// instance, so all clause databases stay logically equivalent and any
// instance can win the next race.
//
// Diversification (sat.Diversify) varies the VSIDS decay, restart policy,
// initial phases, and random-decision seed per instance; instance 0 always
// runs the zero config, i.e. the solver sat.New builds. SAT-call latency,
// not iteration count, dominates dynamic-scan attacks (ScanSAT, GF-Flush),
// so racing the solve is where the wall-clock parallelism is.
//
// Determinism: the *set* of enumerated keys is the full equivalence class
// of the oracle constraints, which is independent of which instance wins
// which race; only the DIP order, iteration count, and per-instance stats
// vary between runs of more than one instance. Tests assert candidate-set
// equality across portfolio sizes 1, 2, and 4.
package satattack

import (
	"context"
	"sort"
	"strconv"

	"dynunlock/internal/aig"
	"dynunlock/internal/cnf"
	"dynunlock/internal/encode"
	"dynunlock/internal/metrics"
	"dynunlock/internal/sat"
)

// pfInstance is one diversified solver with its own encoding of the locked
// circuit. Encoding is deterministic, so variable numbering is identical
// across instances and models transfer between them as plain bit vectors.
type pfInstance struct {
	s     *sat.Solver
	e     *encode.Encoder
	x     []cnf.Lit
	k1    []cnf.Lit
	k2    []cnf.Lit
	miter cnf.Lit
}

type portfolio struct {
	l     *Locked
	insts []*pfInstance
	wins  []int
	// winCtr mirrors wins as live per-instance counters; entries are nil
	// (no-op) when metrics are disabled or there is only one instance.
	winCtr []*metrics.Counter
	// aig is the compacted arena every instance's copies are encoded
	// from. The graph is read-only after construction, so all instances
	// share one.
	aig *aig.Graph
}

// emitted snapshots instance 0's problem size (variables; clauses plus
// native XOR rows) for encode-growth accounting.
func (p *portfolio) emitted() (uint64, uint64) {
	s := p.insts[0].s
	return uint64(s.NumVars()), uint64(s.NumClauses() + s.NumXors())
}

// newPortfolio compiles the locked view into an AIG once and encodes the
// miter from it on n instances, XOR gates as native GF(2) rows. Only a
// portfolio of more than one instance publishes race-win counters.
func newPortfolio(l *Locked, n int, opts Options, mh *metrics.Handle) (*portfolio, error) {
	g, err := aig.FromCombView(l.View)
	if err != nil {
		return nil, err
	}
	p := &portfolio{l: l, wins: make([]int, n), winCtr: make([]*metrics.Counter, n), aig: g}
	for i := 0; i < n; i++ {
		s := sat.NewWithConfig(sat.Diversify(i))
		s.ConflictBudget = opts.ConflictBudget
		installSolverMetrics(mh, opts.Search, s, i)
		if n > 1 {
			p.winCtr[i] = mh.Counter(metrics.MetricPortfolioWins, "instance", strconv.Itoa(i))
		}
		e := encode.NewWithConfig(s, encode.Config{NativeXor: true})
		in := &pfInstance{
			s:  s,
			e:  e,
			x:  e.FreshVec(len(l.InIdx)),
			k1: e.FreshVec(len(l.KeyIdx)),
			k2: e.FreshVec(len(l.KeyIdx)),
		}
		y1 := in.e.EncodeAIG(p.aig, l.assemble(e, in.x, in.k1))
		y2 := in.e.EncodeAIG(p.aig, l.assemble(e, in.x, in.k2))
		in.miter = e.Miter(y1, y2)
		// Branch on key variables first: the miter search closes fastest
		// when the candidate keys are fixed before the shared inputs.
		for _, ks := range [][]cnf.Lit{in.k1, in.k2} {
			for _, kl := range ks {
				s.BumpActivity(kl.Var(), 1)
			}
		}
		p.insts = append(p.insts, in)
	}
	return p, nil
}

// race runs one SAT call on every instance and returns the index and
// status of the first definitive (Sat/Unsat) finisher. One instance solves
// inline under ctx. More instances solve concurrently under a child
// context of ctx: the winner cancels it to stop the losers, and a parent
// cancellation or deadline stops the whole race the same way; the losers
// are drained before race returns. If every instance returns Unknown
// (parent cancelled, or conflict budget exhausted) the winner index is -1.
func (p *portfolio) race(ctx context.Context, withMiter bool) (int, sat.Status) {
	solve := func(ctx context.Context, in *pfInstance) sat.Status {
		if withMiter {
			return in.s.SolveCtx(ctx, in.miter)
		}
		return in.s.SolveCtx(ctx)
	}
	winner, st := -1, sat.Unknown
	if len(p.insts) == 1 {
		if st = solve(ctx, p.insts[0]); st != sat.Unknown {
			winner = 0
		}
	} else {
		type outcome struct {
			idx int
			st  sat.Status
		}
		raceCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		ch := make(chan outcome, len(p.insts))
		for i, in := range p.insts {
			in.s.ClearInterrupt()
			go func(i int, in *pfInstance) {
				ch <- outcome{i, solve(raceCtx, in)}
			}(i, in)
		}
		for range p.insts {
			o := <-ch
			if winner == -1 && o.st != sat.Unknown {
				winner, st = o.idx, o.st
				cancel() // losers stop via their ctx watchers
			}
		}
		for _, in := range p.insts {
			in.s.ClearInterrupt()
		}
	}
	if winner >= 0 {
		p.wins[winner]++
		p.winCtr[winner].Inc()
	}
	return winner, st
}

// replayDIP asserts the oracle's response for a distinguishing input on
// both key copies of every instance. It returns instance 0's problem-size
// growth (encoding is deterministic, so every instance grows alike).
func (p *portfolio) replayDIP(dip, resp []bool) (dVars, dClauses uint64) {
	ev0, ec0 := p.emitted()
	for _, in := range p.insts {
		cx := in.e.ConstVec(dip)
		in.e.AssertEqualConst(in.e.EncodeAIG(p.aig, p.l.assemble(in.e, cx, in.k1)), resp)
		in.e.AssertEqualConst(in.e.EncodeAIG(p.aig, p.l.assemble(in.e, cx, in.k2)), resp)
	}
	ev1, ec1 := p.emitted()
	return ev1 - ev0, ec1 - ec0
}

// key returns the first key copy of instance i's last model.
func (p *portfolio) key(i int) []bool {
	return p.insts[i].e.ModelBits(p.insts[i].k1)
}

// block adds a blocking clause for key k to every instance. It reports
// false when some instance proves the remaining space empty at top level.
func (p *portfolio) block(k []bool) bool {
	ok := true
	for _, in := range p.insts {
		clause := make([]cnf.Lit, len(in.k1))
		for i, l := range in.k1 {
			if k[i] {
				clause[i] = l.Not()
			} else {
				clause[i] = l
			}
		}
		if !in.s.AddClause(clause...) {
			ok = false
		}
	}
	return ok
}

// enumerate lists the keys consistent with every asserted constraint via
// blocking clauses, starting from first, up to limit (> 0) keys. exact
// reports that no further key exists. When a context or budget bound cuts
// the enumeration short it returns the stop reason; the list is then a
// valid but possibly incomplete prefix, reported inexact.
func (p *portfolio) enumerate(ctx context.Context, first []bool, limit int) (keys [][]bool, exact bool, stop StopReason) {
	keys = [][]bool{append([]bool(nil), first...)}
	if !p.block(first) {
		return keys, true, StopNone
	}
	for {
		winner, st := p.race(ctx, false)
		switch {
		case st == sat.Unknown:
			return keys, false, ctxStopReason(ctx)
		case st == sat.Unsat:
			return keys, true, StopNone
		case len(keys) == limit:
			return keys, false, StopNone // the limit is reached and a key remains
		}
		k := p.key(winner)
		keys = append(keys, k)
		if !p.block(k) {
			return keys, true, StopNone
		}
	}
}

// statsSum returns the element-wise sum of every instance's solver
// counters: total work across the portfolio, not critical-path work.
func (p *portfolio) statsSum() sat.Stats {
	sum := p.insts[0].s.Stats
	for _, in := range p.insts[1:] {
		sum.Decisions += in.s.Stats.Decisions
		sum.Propagations += in.s.Stats.Propagations
		sum.Conflicts += in.s.Stats.Conflicts
		sum.Restarts += in.s.Stats.Restarts
		sum.Learnt += in.s.Stats.Learnt
		sum.Removed += in.s.Stats.Removed
		sum.XorPropagations += in.s.Stats.XorPropagations
		sum.XorConflicts += in.s.Stats.XorConflicts
		sum.SimplifyCalls += in.s.Stats.SimplifyCalls
		sum.SimplifyRemoved += in.s.Stats.SimplifyRemoved
		sum.SimplifyStrengthened += in.s.Stats.SimplifyStrengthened
	}
	return sum
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
