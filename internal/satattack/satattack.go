// Package satattack implements the oracle-guided SAT attack of Subramanyan
// et al. (HOST 2015) on combinational locked circuits.
//
// The attack maintains two copies of the locked circuit with shared inputs
// X and independent keys K1, K2, plus a miter forcing their outputs to
// differ. Each SAT call yields a distinguishing input pattern (DIP); the
// oracle's response for that DIP is asserted on both key copies, pruning
// every key that disagrees with the oracle. When the miter goes UNSAT, any
// key satisfying the accumulated I/O constraints is functionally correct
// on all inputs.
//
// Every attack runs one encode pipeline. The locked view is compiled once
// into an and-inverter graph (internal/aig: structural hashing, constant
// folding, cone-of-influence restriction), and every circuit copy — the two
// fresh-key copies and each DIP-constrained pair — replays it through
// encode.EncodeAIG with XOR gates as native GF(2) solver rows. After each
// DIP's constraints are asserted, level-0 inprocessing (sat.Solver.Simplify)
// removes satisfied clauses and strengthens the rest.
//
// DynUnlock (internal/core) feeds this engine a combinational model of a
// dynamically scan-locked circuit whose key inputs are the LFSR seed bits.
package satattack

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"dynunlock/internal/cnf"
	"dynunlock/internal/metrics"
	"dynunlock/internal/netlist"
	"dynunlock/internal/sat"
	"dynunlock/internal/trace"
)

// Locked is a combinational locked circuit: a view whose inputs are split
// into attacker-controlled inputs and key inputs.
type Locked struct {
	View *netlist.CombView
	// KeyIdx indexes View.Inputs entries that are key inputs.
	KeyIdx []int
	// InIdx indexes the remaining, attacker-controlled inputs.
	InIdx []int
}

// NewLocked splits view inputs by a key predicate.
func NewLocked(view *netlist.CombView, isKey func(i int, sig netlist.SignalID) bool) *Locked {
	l := &Locked{View: view}
	for i, s := range view.Inputs {
		if isKey(i, s) {
			l.KeyIdx = append(l.KeyIdx, i)
		} else {
			l.InIdx = append(l.InIdx, i)
		}
	}
	return l
}

// Validate checks index consistency.
func (l *Locked) Validate() error {
	if l.View == nil {
		return errors.New("satattack: nil view")
	}
	seen := make(map[int]bool)
	for _, idx := range [][]int{l.KeyIdx, l.InIdx} {
		for _, i := range idx {
			if i < 0 || i >= len(l.View.Inputs) {
				return fmt.Errorf("satattack: input index %d out of range", i)
			}
			if seen[i] {
				return fmt.Errorf("satattack: input index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(l.View.Inputs) {
		return fmt.Errorf("satattack: %d of %d inputs classified", len(seen), len(l.View.Inputs))
	}
	if len(l.KeyIdx) == 0 {
		return errors.New("satattack: no key inputs")
	}
	return nil
}

// Oracle answers I/O queries on the activated (correctly keyed) circuit.
// The input vector is ordered like Locked.InIdx; the response is ordered
// like View.Outputs.
type Oracle interface {
	Query(in []bool) []bool
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(in []bool) []bool

// Query implements Oracle.
func (f OracleFunc) Query(in []bool) []bool { return f(in) }

// Options tunes the attack.
type Options struct {
	// MaxIterations bounds the DIP loop; 0 means unlimited.
	MaxIterations int
	// EnumerateLimit bounds post-convergence key-candidate enumeration:
	// 0 extracts a single key, n > 0 enumerates up to n candidates.
	EnumerateLimit int
	// ConflictBudget bounds total solver conflicts (0 = unlimited).
	ConflictBudget int64
	// Log, when non-nil, receives per-iteration progress lines.
	Log io.Writer
	// DumpCNF, when non-nil, is called after every iteration with the
	// iteration number and a writer-producing function; the paper's
	// methodology dumps the accumulated CNF after each iteration to
	// inspect which seed bits have been pinned. Pass a func that opens a
	// per-iteration file and writes the solver's DIMACS dump into it.
	DumpCNF func(iteration int, dump func(w io.Writer) error)
	// OnDIP, when non-nil, observes every completed DIP iteration: the
	// iteration number (1-based), the distinguishing input, the oracle's
	// response, a snapshot of the solver counters after the iteration, and
	// the wall time of the SAT call that produced the DIP. The experiment
	// layer (dynunlock.RunExperimentCtx) hangs one observer here that
	// persists dips.jsonl, seals the anatomy segment, feeds the insight
	// tracker and publishes the "dip" stream event. The dip and resp
	// slices are only valid for the duration of the call. nil leaves
	// the hot loop free of timestamps and allocations, preserving the
	// bit-identical unobserved path.
	OnDIP DIPObserver
	// Search, when non-nil, taps the sampled solver search telemetry that
	// the metrics hook sees — learnt-clause LBD observations and restarts.
	// The anatomy capture layer (internal/anatomy) implements it to build
	// per-DIP LBD histograms and restart telemetry. It is strictly
	// observational and composes with the metrics hook; nil keeps the
	// no-telemetry solver path hook-free.
	Search SearchObserver
	// Insight, when non-nil, closes the insight→solver feedback loop:
	// after each DIP the freshly certified key constraints are injected
	// into the solver as XOR rows, and once the source determines the
	// key completely the attack short-circuits analytically — the DIP loop
	// stops, the derived key becomes the single exact candidate, and no
	// further SAT calls are issued (Result.Analytic). The source must only
	// certify linear consequences of the oracle responses already asserted,
	// which keeps the candidate set identical to the plain attack's.
	Insight InsightSource
}

// KeyConstraint is one certified GF(2) constraint over the attack's key
// bits: the XOR of the key bits at Idx equals RHS.
type KeyConstraint struct {
	Idx []int
	RHS bool
}

// InsightSource streams certified linear key constraints into the attack
// (see Options.Insight). The internal/insight tracker implements it for
// seed-keyed attacks; internal/core wraps it for mask-keyed (linear-mode)
// attacks.
type InsightSource interface {
	// ConstraintsSince returns the constraints certified since the given
	// cursor (0 initially) and the new cursor to resume from. Constraint
	// indices address the attack's key vector.
	ConstraintsSince(from int) ([]KeyConstraint, int)
	// SolveKey returns the full key and true once the certified system
	// determines every key bit; (nil, false) while the key space is still
	// under-determined.
	SolveKey() ([]bool, bool)
}

// DIPObserver receives one callback per DIP iteration (see Options.OnDIP).
type DIPObserver func(iteration int, dip, resp []bool, stats sat.Stats, solveTime time.Duration)

// SearchObserver receives solver search telemetry (see Options.Search):
// sampled learnt-clause LBD/size observations and every restart with its
// segment conflict count.
type SearchObserver interface {
	SearchLearnt(lbd int32, size int)
	SearchRestart(conflicts uint64)
}

// StopReason classifies why an attack stopped before completing.
type StopReason string

// Stop reasons. StopIterations leaves the accumulated constraints usable,
// so key extraction and enumeration still run; the other reasons abort the
// attack where it stands and the Result is partial.
const (
	StopNone       StopReason = ""
	StopDeadline   StopReason = "deadline"
	StopCancelled  StopReason = "cancelled"
	StopBudget     StopReason = "budget"
	StopIterations StopReason = "max-iterations"
)

// ctxStopReason maps a context error to its stop reason; a nil error means
// the solver's own budget was the cause.
func ctxStopReason(ctx context.Context) StopReason {
	switch ctx.Err() {
	case context.DeadlineExceeded:
		return StopDeadline
	case nil:
		return StopBudget
	default:
		return StopCancelled
	}
}

// Result reports the attack outcome.
type Result struct {
	// Key is one key consistent with every oracle response.
	Key []bool
	// Candidates lists all enumerated keys (including Key) when
	// Options.EnumerateLimit > 0.
	Candidates [][]bool
	// CandidatesExact is true when enumeration finished before the limit:
	// Candidates is then the complete equivalence class.
	CandidatesExact bool
	// Iterations is the number of DIPs used (SAT-attack iterations).
	Iterations int
	// Queries is the number of oracle queries issued.
	Queries int
	// Converged is true when the miter became UNSAT (proof of key
	// correctness on all inputs), false when an iteration bound stopped
	// the loop early.
	Converged bool
	// Analytic is true when the insight short-circuit ended the attack:
	// the certified GF(2) system reached full rank, the key was derived by
	// back-substitution, and the remaining SAT iterations (including
	// extraction and enumeration) were skipped.
	Analytic bool
	// Elapsed is the wall-clock attack time.
	Elapsed time.Duration
	// EncodeVars and EncodeClauses total the CNF growth emitted by circuit
	// encoding — the initial miter plus every DIP-constrained copy pair.
	// Clause counts include native XOR rows. These are the measured
	// evidence for the AIG pipeline's structural compaction.
	EncodeVars    uint64
	EncodeClauses uint64
	// SolverStats snapshots the SAT solver counters.
	SolverStats sat.Stats
	// Stopped is true when a deadline, cancellation, or budget bounded the
	// attack before it finished; the Result is then partial (Key and
	// Candidates may be nil) but every counter is valid. StopIterations is
	// the exception: the DIP loop was bounded, yet extraction and
	// enumeration still ran on the accumulated constraints.
	Stopped bool
	// StopReason classifies the bound that fired when Stopped is true.
	StopReason StopReason
}

// ErrUnsat is returned when the accumulated constraints become
// unsatisfiable, which indicates an oracle inconsistent with the model.
var ErrUnsat = errors.New("satattack: constraints unsatisfiable; oracle does not match the locked model")

// Run executes the SAT attack with no cancellation: Run is RunCtx under
// context.Background().
func Run(l *Locked, o Oracle, opts Options) (*Result, error) {
	return RunCtx(context.Background(), l, o, opts)
}

// RunCtx executes the SAT attack on one solver (see miter.go).
//
// Cancelling ctx — or exhausting its deadline, or the conflict budget —
// never returns an error: the attack stops at the next solver check point
// and returns the partial Result with Stopped set and StopReason naming
// the bound. Under a background context and no trace sink the attack takes
// the same search path on every run, bit for bit.
func RunCtx(ctx context.Context, l *Locked, o Oracle, opts Options) (*Result, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	tr := trace.From(ctx)
	mh := metrics.From(ctx)
	am := newAttackMetrics(mh)
	start := time.Now()

	enc := tr.Start("encode")
	m, err := newMiter(l, opts, mh)
	if err != nil {
		enc.End()
		return nil, err
	}
	enc.Add("aig_nodes", uint64(m.aig.NumNodes()))
	enc.Add("vars", uint64(m.s.NumVars()))
	enc.Add("clauses", uint64(m.s.NumClauses()))
	enc.End()

	res := &Result{}
	res.EncodeVars, res.EncodeClauses = m.emitted()
	am.observeEncode(res.EncodeVars, res.EncodeClauses)
	finish := func(reason StopReason) *Result {
		if reason != StopNone {
			res.Stopped = true
			res.StopReason = reason
		}
		res.SolverStats = m.s.Stats
		res.Elapsed = time.Since(start)
		return res
	}

	loop := tr.Start("dip_loop")
	loopMark := m.s.Stats
	var loopEncV, loopEncC uint64
	endLoop := func() {
		addStatsDelta(loop, loopMark, m.s.Stats)
		loop.Add("dips", uint64(res.Iterations))
		loop.Add("oracle_queries", uint64(res.Queries))
		loop.Add("encode_vars", loopEncV)
		loop.Add("encode_clauses", loopEncC)
		loop.End()
	}
	stop := StopNone
	insCursor := 0
dipLoop:
	for {
		if err := ctx.Err(); err != nil {
			stop = ctxStopReason(ctx)
			break
		}
		if opts.MaxIterations > 0 && res.Iterations >= opts.MaxIterations {
			stop = StopIterations
			break
		}
		// The timestamp is taken only when an observer is live so the
		// disabled path stays bit-identical and syscall-free.
		var solveT0, solveT1 time.Time
		if am != nil || opts.OnDIP != nil {
			solveT0 = time.Now()
		}
		st := m.s.SolveCtx(ctx, m.act)
		if am != nil || opts.OnDIP != nil {
			solveT1 = time.Now()
		}
		if am != nil {
			am.observeSolve(solveT1.Sub(solveT0))
		}
		switch st {
		case sat.Unsat:
			res.Converged = true
			break dipLoop
		case sat.Unknown:
			stop = ctxStopReason(ctx)
			break dipLoop
		}
		dip := m.e.ModelBits(m.x)
		resp := o.Query(dip)
		res.Queries++
		res.Iterations++
		if len(resp) != len(l.View.Outputs) {
			endLoop()
			return nil, fmt.Errorf("satattack: oracle returned %d outputs, want %d", len(resp), len(l.View.Outputs))
		}
		am.observeDIP(res.Iterations)
		if opts.OnDIP != nil {
			opts.OnDIP(res.Iterations, dip, resp, m.s.Stats, solveT1.Sub(solveT0))
		}
		dv, dc := m.replayDIP(dip, resp)
		res.EncodeVars += dv
		res.EncodeClauses += dc
		loopEncV += dv
		loopEncC += dc
		am.observeEncode(dv, dc)
		if opts.Insight != nil {
			// The OnDIP hook above let the insight source observe this
			// response; its new rows are linear consequences of the
			// constraints just asserted, so injecting them prunes no
			// candidate key.
			var cs []KeyConstraint
			cs, insCursor = opts.Insight.ConstraintsSince(insCursor)
			injectInsight(m.s, m.k1, m.k2, cs)
			if key, ok := opts.Insight.SolveKey(); ok && len(key) == len(l.KeyIdx) {
				res.Key = append([]bool(nil), key...)
				res.Analytic = true
				res.Converged = true
				break dipLoop
			}
		}
		// Level-0 inprocessing between DIPs: the response units just
		// asserted satisfy or shorten clauses of earlier copies, and an
		// UNSAT result here surfaces on the next solve.
		m.s.Simplify()
		if tr.Enabled() || opts.Log != nil {
			line := fmt.Sprintf("iter %d: dip=%s clauses=%d conflicts=%d",
				res.Iterations, bitString(dip), m.s.NumClauses(), m.s.Stats.Conflicts)
			tr.Progressf("%s", line)
			if opts.Log != nil {
				fmt.Fprintln(opts.Log, line)
			}
		}
		if opts.DumpCNF != nil {
			opts.DumpCNF(res.Iterations, m.s.WriteDimacs)
		}
	}
	endLoop()
	if stop != StopNone && stop != StopIterations {
		return finish(stop), nil
	}
	if res.Analytic {
		// Rank-k short-circuit: the certified system determines the key
		// uniquely, so the equivalence class is exactly {Key} and no
		// extraction or enumeration SAT calls are needed.
		if opts.EnumerateLimit > 0 {
			res.Candidates = [][]bool{append([]bool(nil), res.Key...)}
			res.CandidatesExact = true
		}
		return finish(stop), nil
	}

	// Key extraction: any key consistent with all recorded I/O pairs.
	ext := tr.Start("extract")
	extMark := m.s.Stats
	st := m.s.SolveCtx(ctx)
	addStatsDelta(ext, extMark, m.s.Stats)
	ext.End()
	switch st {
	case sat.Unsat:
		return nil, ErrUnsat
	case sat.Unknown:
		return finish(ctxStopReason(ctx)), nil
	}
	res.Key = m.e.ModelBits(m.k1)

	if opts.EnumerateLimit > 0 {
		enumSp := tr.Start("enumerate")
		enumMark := m.s.Stats
		var enumStop StopReason
		res.Candidates, res.CandidatesExact, enumStop = m.enumerate(ctx, res.Key, opts.EnumerateLimit)
		if enumStop != StopNone {
			stop = enumStop
		}
		// The solver enumerates keys in search order; report the class in
		// a canonical order, independent of how the search found it.
		sortKeys(res.Candidates)
		addStatsDelta(enumSp, enumMark, m.s.Stats)
		enumSp.Add("candidates", uint64(len(res.Candidates)))
		enumSp.End()
	}
	return finish(stop), nil
}

// addStatsDelta records the solver-counter growth between two snapshots on
// a span.
func addStatsDelta(sp *trace.Span, from, to sat.Stats) {
	sp.Add("conflicts", to.Conflicts-from.Conflicts)
	sp.Add("decisions", to.Decisions-from.Decisions)
	sp.Add("propagations", to.Propagations-from.Propagations)
	sp.Add("learnt", to.Learnt-from.Learnt)
	sp.Add("removed", to.Removed-from.Removed)
	sp.Add("restarts", to.Restarts-from.Restarts)
	sp.Add("xor_propagations", to.XorPropagations-from.XorPropagations)
	sp.Add("xor_conflicts", to.XorConflicts-from.XorConflicts)
	sp.Add("simplify_removed", to.SimplifyRemoved-from.SimplifyRemoved)
	sp.Add("simplify_strengthened", to.SimplifyStrengthened-from.SimplifyStrengthened)
}

// injectInsight adds certified key constraints to the solver as XOR rows
// over both key copies. Constraints with out-of-range indices are ignored
// (defensive: a well-formed source addresses only key bits). AddXor's
// echelon reduction absorbs rows the solver already knows for free.
func injectInsight(s *sat.Solver, k1, k2 []cnf.Lit, cs []KeyConstraint) {
	for _, c := range cs {
		for _, ks := range [][]cnf.Lit{k1, k2} {
			lits := make([]cnf.Lit, 0, len(c.Idx))
			ok := true
			for _, i := range c.Idx {
				if i < 0 || i >= len(ks) {
					ok = false
					break
				}
				lits = append(lits, ks[i])
			}
			if ok {
				s.AddXor(lits, c.RHS)
			}
		}
	}
}

// assemble builds the full view-input literal vector from attacker inputs
// and key literals.
func (l *Locked) assemble(in, key []cnf.Lit) []cnf.Lit {
	full := make([]cnf.Lit, len(l.View.Inputs))
	for i, idx := range l.InIdx {
		full[idx] = in[i]
	}
	for i, idx := range l.KeyIdx {
		full[idx] = key[i]
	}
	return full
}

func bitString(bs []bool) string {
	out := make([]byte, len(bs))
	for i, b := range bs {
		if b {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	if len(out) > 64 {
		return string(out[:61]) + "..."
	}
	return string(out)
}
