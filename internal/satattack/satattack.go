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
// The loop closes on the first of two proofs (Result.Closed). After
// each DIP a one-copy check (unique.go) — a second solver holding a
// single key copy under the same I/O constraints — asks whether exactly
// one key is still consistent; if so no DIP remains and the loop closes
// on that key, skipping the miter's closing UNSAT call, extraction and
// enumeration ("unique"). When the consistent set has more than one
// member, the paper's miter-UNSAT proof closes the loop and extraction
// and enumeration follow ("miter").
//
// Every attack runs one encode pipeline. The locked circuit arrives as an
// and-inverter graph (Locked.Graph; internal/aig: structural hashing,
// constant folding, cone-of-influence restriction), which NewLocked
// compiles from a netlist view and internal/core builds straight from its
// mask model; the attack itself never compiles. Every circuit copy — the
// two fresh-key copies and each DIP-constrained pair — replays the graph
// through encode.EncodeAIG with XOR gates as native GF(2) solver rows.
// After each DIP's constraints are asserted, level-0 inprocessing
// (sat.Solver.Simplify) removes satisfied clauses and strengthens the
// rest. Each role's encoder, with its solver and gate table, goes back to
// a pool when the attack ends, and the next attack in the process starts
// from its storage.
//
// DynUnlock (internal/core) feeds this engine a combinational model of a
// dynamically scan-locked circuit whose key inputs are the LFSR seed bits.
package satattack

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"dynunlock/internal/aig"
	"dynunlock/internal/cnf"
	"dynunlock/internal/encode"
	"dynunlock/internal/metrics"
	"dynunlock/internal/netlist"
	"dynunlock/internal/sat"
	"dynunlock/internal/trace"
)

// Locked is a combinational locked circuit: a graph whose inputs are
// split into attacker-controlled inputs and key inputs.
type Locked struct {
	Graph *aig.Graph
	// KeyIdx indexes the graph inputs that are key inputs.
	KeyIdx []int
	// InIdx indexes the remaining, attacker-controlled inputs.
	InIdx []int
}

// NewLocked compiles view into a graph once and splits its inputs by a key
// predicate. It returns the compiler's error, or Validate's.
func NewLocked(view *netlist.CombView, isKey func(i int, sig netlist.SignalID) bool) (*Locked, error) {
	g, err := aig.FromCombView(view)
	if err != nil {
		return nil, err
	}
	l := &Locked{Graph: g}
	for i, s := range view.Inputs {
		if isKey(i, s) {
			l.KeyIdx = append(l.KeyIdx, i)
		} else {
			l.InIdx = append(l.InIdx, i)
		}
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// Validate checks index consistency.
func (l *Locked) Validate() error {
	if l.Graph == nil {
		return errors.New("satattack: nil graph")
	}
	n := l.Graph.NumInputs()
	seen := make([]bool, n)
	for _, idx := range [][]int{l.KeyIdx, l.InIdx} {
		for _, i := range idx {
			if i < 0 || i >= n {
				return fmt.Errorf("satattack: input index %d out of range", i)
			}
			if seen[i] {
				return fmt.Errorf("satattack: input index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if c := len(l.KeyIdx) + len(l.InIdx); c != n {
		return fmt.Errorf("satattack: %d of %d inputs classified", c, n)
	}
	if len(l.KeyIdx) == 0 {
		return errors.New("satattack: no key inputs")
	}
	return nil
}

// Oracle answers I/O queries on the activated (correctly keyed) circuit.
// The input vector is ordered like Locked.InIdx; the response is ordered
// like the graph's outputs.
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
	// Log, when non-nil, receives per-iteration progress lines.
	Log io.Writer
	// DumpCNF, when non-nil, is called after every iteration with the
	// iteration number and a writer-producing function; the paper's
	// methodology dumps the accumulated CNF after each iteration to
	// inspect which seed bits have been pinned. Pass a func that opens a
	// per-iteration file and writes the solver's DIMACS dump into it. The
	// dump is the formula the next DIP solve decides, its activation
	// literal included as a unit: satisfiable while a DIP remains. The
	// dump func is valid only for the duration of the call.
	DumpCNF func(iteration int, dump func(w io.Writer) error)
	// OnDIP, when non-nil, observes every completed DIP iteration: the
	// iteration number (1-based), the distinguishing input, the oracle's
	// response, a snapshot of the solver counters after the iteration, and
	// the wall time of the SAT call that produced the DIP. The experiment
	// layer (dynunlock.RunExperimentCtx) hangs one observer here that
	// persists dips.jsonl and publishes the "dip" stream event. The dip
	// and resp slices are only valid for the duration of the call. nil
	// leaves the hot loop free of timestamps and allocations, preserving
	// the bit-identical unobserved path.
	OnDIP DIPObserver
}

// DIPObserver receives one callback per DIP iteration (see Options.OnDIP).
type DIPObserver func(iteration int, dip, resp []bool, stats sat.Stats, solveTime time.Duration)

// StopReason classifies why an attack stopped before completing.
type StopReason string

// Stop reasons. StopIterations leaves the accumulated constraints usable,
// so key extraction and enumeration still run; the other reasons abort the
// attack where it stands and the Result is partial.
const (
	StopNone       StopReason = ""
	StopDeadline   StopReason = "deadline"
	StopCancelled  StopReason = "cancelled"
	StopIterations StopReason = "max-iterations"
)

// ctxStopReason maps the error of a context that cut a solve short to its
// stop reason.
func ctxStopReason(ctx context.Context) StopReason {
	if ctx.Err() == context.DeadlineExceeded {
		return StopDeadline
	}
	return StopCancelled
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
	// Converged is true when the loop proved that no DIP remains — the
	// miter went UNSAT or the consistent key set shrank to one key (see
	// Closed) — so every candidate is correct on all inputs. It is false
	// when a bound stopped the loop early.
	Converged bool
	// Closed names the proof that closed a converged loop; empty when the
	// loop did not converge.
	Closed Close
	// Elapsed is the wall-clock attack time.
	Elapsed time.Duration
	// EncodeVars and EncodeClauses total the CNF growth emitted by circuit
	// encoding — the initial miter plus every DIP-constrained copy pair.
	// Clause counts include native XOR rows. These are the measured
	// evidence for the AIG pipeline's structural compaction.
	EncodeVars    uint64
	EncodeClauses uint64
	// SolverStats snapshots the miter solver's counters.
	SolverStats sat.Stats
	// CheckStats snapshots the uniqueness check's solver counters, kept
	// apart from SolverStats so the miter's stay comparable across runs
	// with and without the check; zero when the loop ended before its
	// first check.
	CheckStats sat.Stats
	// Stopped is true when a deadline or cancellation bounded the attack
	// before it finished; the Result is then partial (Key and
	// Candidates may be nil) but every counter is valid. StopIterations is
	// the exception: the DIP loop was bounded, yet extraction and
	// enumeration still ran on the accumulated constraints.
	Stopped bool
	// StopReason classifies the bound that fired when Stopped is true.
	StopReason StopReason
}

// Close names how a converged DIP loop ended (Result.Closed).
type Close string

// Closing proofs.
const (
	// CloseMiter: the miter went UNSAT, the paper's Fig. 3 close; key
	// extraction and enumeration follow on the miter solver.
	CloseMiter Close = "miter"
	// CloseUnique: the one-copy check proved a single consistent key,
	// which is then the whole exact candidate set.
	CloseUnique Close = "unique"
)

// ErrUnsat is returned when the accumulated constraints become
// unsatisfiable, which indicates an oracle inconsistent with the model.
var ErrUnsat = errors.New("satattack: constraints unsatisfiable; oracle does not match the locked model")

// miterEncoders and checkEncoders hand a finished attack's encoders, each
// with its solver and gate table, to the next attack in the process, one
// pool per role, so that the miter's large store never goes to a check,
// which would leave the next miter to grow its own. A pooled encoder's
// solver is Reset and its table is cleared when it is taken: it carries
// capacity, not content, and encodes and searches exactly as a new one.
var miterEncoders, checkEncoders rolePool

// rolePool is a free list of one role's encoders. A garbage collection
// cannot empty it, as it would a sync.Pool. It holds as many encoders as
// the most attacks that ever ran at once in the process, which the
// callers' worker counts bound, each as large as the largest attack it
// served, until the process exits.
type rolePool struct {
	mu   sync.Mutex
	free []*encode.Encoder
}

// acquire takes an encoder from pool, or a new one when the pool is empty,
// sets its solver's metrics hook, and then Resets it, so the hook sees
// every clause from the first.
func acquire(pool *rolePool, mr *metrics.Registry) *encode.Encoder {
	var e *encode.Encoder
	pool.mu.Lock()
	if n := len(pool.free); n > 0 {
		e = pool.free[n-1]
		pool.free[n-1] = nil
		pool.free = pool.free[:n-1]
	}
	pool.mu.Unlock()
	if e == nil {
		e = &encode.Encoder{S: sat.New()}
	}
	installSolverMetrics(mr, e.S)
	e.Reset()
	return e
}

// release empties a finished attack's solver and returns its encoder to
// the role's pool.
func release(pool *rolePool, e *encode.Encoder) {
	e.S.Reset()
	pool.mu.Lock()
	pool.free = append(pool.free, e)
	pool.mu.Unlock()
}

// RunCtx executes the SAT attack on one solver (see miter.go).
//
// Cancelling ctx, or exhausting its deadline, never returns an error:
// the attack stops at the next solver check point and returns the
// partial Result with Stopped set and StopReason naming the bound. Under
// a background context and no trace sink the attack takes the same
// search path on every run, bit for bit.
func RunCtx(ctx context.Context, l *Locked, o Oracle, opts Options) (*Result, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	tr := trace.From(ctx)
	mr := metrics.From(ctx)
	am := newAttackMetrics(mr)
	start := time.Now()

	enc := tr.Start("encode")
	m := newMiter(l, opts, mr)
	enc.Add("aig_nodes", uint64(l.Graph.NumNodes()))
	enc.Add("vars", uint64(m.s.NumVars()))
	enc.Add("clauses", uint64(m.s.NumClauses()))
	enc.End()

	var uc *uniqueCheck // built at the first check
	defer func() {
		release(&miterEncoders, m.e)
		if uc != nil {
			release(&checkEncoders, uc.e)
		}
	}()

	res := &Result{}
	res.EncodeVars, res.EncodeClauses = emitted(m.s)
	am.observeEncode(res.EncodeVars, res.EncodeClauses)
	finish := func(reason StopReason) *Result {
		if reason != StopNone {
			res.Stopped = true
			res.StopReason = reason
		}
		res.SolverStats = m.s.Stats
		if uc != nil {
			res.CheckStats = uc.s.Stats
		}
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
			res.Closed = CloseMiter
			break dipLoop
		case sat.Unknown:
			stop = ctxStopReason(ctx)
			break dipLoop
		}
		dip := m.e.ModelBits(m.x)
		resp := o.Query(dip)
		res.Queries++
		res.Iterations++
		if want := len(l.Graph.Outputs()); len(resp) != want {
			endLoop()
			return nil, fmt.Errorf("satattack: oracle returned %d outputs, want %d", len(resp), want)
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
			opts.DumpCNF(res.Iterations, func(w io.Writer) error { return m.s.WriteDimacs(w, m.act) })
		}
		// The uniqueness check comes last, after this DIP's progress
		// line, so the line still marks the end of the DIP's own work.
		if uc == nil {
			uc = newUniqueCheck(l)
		}
		if key := uc.check(ctx, tr, dip, resp, m.s.Stats.Conflicts); key != nil {
			res.Key = key
			res.Converged = true
			res.Closed = CloseUnique
			break dipLoop
		}
	}
	endLoop()
	if stop != StopNone && stop != StopIterations {
		return finish(stop), nil
	}
	if res.Closed == CloseUnique {
		// The consistent set is exactly {Key}: the uniqueness check
		// determined it, so no extraction or enumeration SAT calls are
		// needed.
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

// assemble builds the full graph-input literal vector from attacker inputs
// and key literals.
func (l *Locked) assemble(in, key []cnf.Lit) []cnf.Lit {
	full := make([]cnf.Lit, l.Graph.NumInputs())
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
