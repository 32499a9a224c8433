package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"dynunlock/internal/gf2"
	"dynunlock/internal/lock"
	"dynunlock/internal/metrics"
	"dynunlock/internal/sat"
	"dynunlock/internal/satattack"
	"dynunlock/internal/sim"
	"dynunlock/internal/trace"
)

// StopReason re-exports the satattack stop classification so callers of the
// core API need not import the engine package.
type StopReason = satattack.StopReason

// Stop reasons (see satattack).
const (
	StopNone       = satattack.StopNone
	StopDeadline   = satattack.StopDeadline
	StopCancelled  = satattack.StopCancelled
	StopBudget     = satattack.StopBudget
	StopIterations = satattack.StopIterations
)

// Chip is the oracle-side interface the attack layers consume: the chip
// the attacker owns, reduced to exactly the operations the attack issues.
// The fabricated simulator (*oracle.Chip) implements it, and so does the
// flight recorder's offline replay oracle (internal/flight.Replay), which
// serves recorded sessions with no chip simulation at all. Everything the
// attack observes flows through these five methods, so swapping the
// implementation swaps the physical oracle without touching the attack.
type Chip interface {
	// Design returns the attacker-visible structural description.
	Design() *lock.Design
	// Reset asserts the chip reset (PRNG reload, counters restart).
	Reset()
	// Session runs one scan test session (see oracle.Chip.Session).
	Session(testKey, scanIn, pi []bool) (scanOut, po []bool)
	// SessionN runs a multi-capture session (see oracle.Chip.SessionN).
	SessionN(testKey, scanIn []bool, pis [][]bool) (scanOut []bool, pos [][]bool)
	// SetSessionHook installs a per-session cycle-accounting hook and
	// returns the previous one so observers chain and restore.
	SetSessionHook(h func(cycles uint64)) (prev func(cycles uint64))
}

// Options configures the DynUnlock attack.
type Options struct {
	// Mode selects the seed search-space formulation (see Mode). The zero
	// value is ModeLinear.
	Mode Mode
	// TestKey is the (arbitrary, almost surely mismatching) external test
	// key the attacker applies so the PRNG drives the key gates. Nil means
	// all zeros.
	TestKey []bool
	// EnumerateLimit bounds seed-candidate enumeration after convergence.
	// 0 selects the paper's practical bound of 256 (Table II observes at
	// most 128 candidates).
	EnumerateLimit int
	// MaxIterations bounds the DIP loop (0 = unlimited).
	MaxIterations int
	// ConflictBudget bounds total SAT conflicts (0 = unlimited).
	ConflictBudget int64
	// VerifyProbes is the number of random probe sessions used to check
	// each recovered seed against the chip (attacker-side validation).
	// 0 selects 8.
	VerifyProbes int
	// Log receives progress lines when non-nil.
	Log io.Writer
	// OnDIP, when non-nil, observes every DIP iteration (see
	// satattack.Options.OnDIP). The flight recorder installs it to persist
	// the per-iteration transcript; nil keeps the hot loop untouched.
	OnDIP satattack.DIPObserver
	// Search, when non-nil, taps the solver's search telemetry (see
	// satattack.Options.Search); the anatomy capture layer installs it.
	Search satattack.SearchObserver
	// NativeXor, AIG and Simplify are ignored: every attack encodes from a
	// shared AIG with native XOR rows and runs inprocessing between DIPs
	// (see package satattack).
	//
	// Deprecated: ignored. They remain only because cmd/dynbench still
	// sets them; the next change to that benchmark deletes them.
	NativeXor, AIG, Simplify bool
	// Insight, when non-nil, is a seed-space constraint source (the
	// internal/insight tracker) whose certified rows are fed back into the
	// solver after each DIP and which arms the analytic rank-k
	// short-circuit (see satattack.Options.Insight). The source must
	// address seed bits: ModeDirect passes it through unchanged, ModeLinear
	// translates its rows into the mask key space. OnDIP must also feed it
	// each response (the tracker's DIPObserver, or an observer that calls
	// its Observe) so it actually observes the responses.
	Insight satattack.InsightSource
}

// Result reports a DynUnlock run.
type Result struct {
	// Mode is the formulation that produced this result.
	Mode Mode
	// SeedCandidates are the recovered seeds; the set is the full
	// indistinguishability class when Exact.
	SeedCandidates []gf2.Vec
	// Exact reports whether enumeration completed below the limit.
	Exact bool
	// Iterations is the number of SAT-attack iterations (DIPs).
	Iterations int
	// Queries is the number of scan sessions issued to the chip.
	Queries int
	// Converged reports miter-UNSAT convergence.
	Converged bool
	// Analytic reports that the insight feedback loop reached full key rank
	// and the key was recovered by GF(2) back-substitution, short-circuiting
	// the remaining SAT iterations (see satattack.Result.Analytic).
	Analytic bool
	// Rank is rank([A;B]); PredictedLog2 = keyBits − Rank is the analytic
	// candidate-count exponent.
	Rank          int
	PredictedLog2 int
	// Verified reports that every candidate reproduced the chip's behavior
	// on the random probe sessions (attacker-side check).
	Verified bool
	// Elapsed is total attack wall time.
	Elapsed time.Duration
	// SolverStats snapshots the CDCL solver counters.
	SolverStats sat.Stats
	// Stopped is true when a deadline, cancellation, or budget bounded the
	// attack (see satattack.Result.Stopped); counters and any recovered
	// candidates remain valid, but the set may be incomplete.
	Stopped bool
	// StopReason classifies the bound that fired when Stopped is true.
	StopReason StopReason
	// EncodeVars and EncodeClauses count solver variables and emitted
	// clauses (including native XOR rows) attributable to circuit encoding,
	// summed over the initial miter and every DIP-constrained copy pair.
	// The AIG path exists to shrink these.
	EncodeVars    uint64
	EncodeClauses uint64
}

// ChipOracle adapts a scan session on the real chip to the combinational
// model's I/O interface: model inputs (pi, a) map to one reset + session;
// model outputs are (po, observed scan-out).
type ChipOracle struct {
	Chip    Chip
	TestKey []bool
	// Sessions counts queries issued through this adapter.
	Sessions int
}

// NewChipOracle builds the adapter; nil testKey selects all zeros.
func NewChipOracle(chip Chip, testKey []bool) *ChipOracle {
	if testKey == nil {
		testKey = make([]bool, chip.Design().Config.KeyBits)
	}
	return &ChipOracle{Chip: chip, TestKey: testKey}
}

// Query implements satattack.Oracle.
func (o *ChipOracle) Query(in []bool) []bool {
	d := o.Chip.Design()
	numPI := d.View.NumPI
	pi := in[:numPI]
	a := in[numPI:]
	o.Chip.Reset()
	scanOut, po := o.Chip.Session(o.TestKey, a, pi)
	o.Sessions++
	return append(append([]bool(nil), po...), scanOut...)
}

// Attack runs DynUnlock end to end against a chip the attacker owns:
// model construction (Algorithm 1), the SAT attack loop (Fig. 3), seed
// enumeration, and probe-based verification. Attack is AttackCtx under
// context.Background().
func Attack(chip Chip, opts Options) (*Result, error) {
	return AttackCtx(context.Background(), chip, opts)
}

// AttackCtx is Attack with cancellation and tracing. Cancelling ctx or
// exceeding its deadline stops the attack at the next solver check point and
// returns a partial Result with Stopped set — never an error, a hang, or a
// panic. A trace sink installed on ctx (trace.With) observes one span per
// Fig. 3 stage: unroll, encode, dip_loop, extract, enumerate, refine,
// verify. With a background context and no sink, behavior is bit-identical
// to the unbounded sequential attack.
func AttackCtx(ctx context.Context, chip Chip, opts Options) (*Result, error) {
	tr := trace.From(ctx)
	start := time.Now()
	d := chip.Design()
	if opts.EnumerateLimit == 0 {
		opts.EnumerateLimit = 256
	}
	if opts.VerifyProbes == 0 {
		opts.VerifyProbes = 8
	}

	// Tester-time accounting: every scan session reports its cycle cost.
	// The previous hook is chained and restored so nested attacks compose.
	// The metrics instruments are nil (no-op) without a registry on ctx.
	mh := metrics.From(ctx)
	sessCtr := mh.Counter(metrics.MetricOracleSessions)
	cycleCtr := mh.Counter(metrics.MetricOracleCycles)
	var oracleSessions, oracleCycles uint64
	prevHook := chip.SetSessionHook(nil)
	chip.SetSessionHook(func(cycles uint64) {
		oracleSessions++
		oracleCycles += cycles
		sessCtr.Inc()
		cycleCtr.Add(cycles)
		if prevHook != nil {
			prevHook(cycles)
		}
	})
	defer chip.SetSessionHook(prevHook)

	adapter := NewChipOracle(chip, opts.TestKey)

	res := &Result{Mode: opts.Mode}
	switch opts.Mode {
	case ModeDirect:
		unroll := tr.Start("unroll")
		model, err := BuildModel(d, 0)
		if err != nil {
			unroll.End()
			return nil, err
		}
		res.Rank = model.Rank()
		res.PredictedLog2 = model.PredictedCandidatesLog2()
		unroll.Add("key_bits", uint64(d.Config.KeyBits))
		unroll.Add("rank", uint64(res.Rank))
		unroll.End()
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "direct model: %s; rank[A;B]=%d predicted candidates=2^%d\n",
				model.Netlist.Stats(), res.Rank, res.PredictedLog2)
		}
		// Direct mode searches the seed space itself: the tracker's
		// seed-bit constraints are key-bit constraints verbatim.
		saRes, err := runEngine(ctx, model.Locked, adapter, opts, opts.Insight, res)
		if err != nil {
			return nil, err
		}
		for _, c := range saRes.Candidates {
			res.SeedCandidates = append(res.SeedCandidates, gf2.FromBools(c))
		}
		if len(res.SeedCandidates) == 0 && saRes.Key != nil {
			res.SeedCandidates = []gf2.Vec{gf2.FromBools(saRes.Key)}
		}

	default: // ModeLinear
		unroll := tr.Start("unroll")
		mm, err := BuildMaskModel(d, 0)
		if err != nil {
			unroll.End()
			return nil, err
		}
		stacked := gf2.VStack(mm.A, mm.B)
		res.Rank = gf2.Rank(stacked)
		res.PredictedLog2 = d.Config.KeyBits - res.Rank
		unroll.Add("key_bits", uint64(d.Config.KeyBits))
		unroll.Add("rank", uint64(res.Rank))
		unroll.End()
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "mask model: %s; rank[A;B]=%d predicted candidates=2^%d\n",
				mm.Netlist.Stats(), res.Rank, res.PredictedLog2)
		}
		// Linear mode searches the mask space, so the tracker's seed-bit
		// rows must be re-expressed over the mask key bits first.
		var insight satattack.InsightSource
		if opts.Insight != nil {
			insight = newMaskInsight(mm, opts.Insight)
		}
		saRes, err := runEngine(ctx, mm.Locked, adapter, opts, insight, res)
		if err != nil {
			return nil, err
		}
		masks := saRes.Candidates
		if len(masks) == 0 && saRes.Key != nil {
			masks = [][]bool{saRes.Key}
		}
		refine := tr.Start("refine")
		members := make([]gf2.Vec, len(masks))
		for i, mk := range masks {
			members[i] = mm.MaskVector(mk)
		}
		seeds := mm.SeedsForMaskCoset(members, opts.EnumerateLimit+1)
		if len(seeds) > opts.EnumerateLimit {
			seeds = seeds[:opts.EnumerateLimit]
			res.Exact = false
		}
		res.SeedCandidates = seeds
		refine.Add("mask_candidates", uint64(len(masks)))
		refine.Add("seed_candidates", uint64(len(seeds)))
		refine.End()
	}

	res.Queries = adapter.Sessions

	// Attacker-side verification: every candidate must reproduce the chip
	// on fresh random sessions. A partial candidate set from a stopped run
	// is still verified — the probes are closed-form, not SAT work.
	verify := tr.Start("verify")
	v, err := NewVerifier(d)
	if err != nil {
		verify.End()
		return nil, err
	}
	res.Verified = len(res.SeedCandidates) > 0
	rngProbe := newSplitMix(0x9e3779b97f4a7c15)
	probes := 0
	for p := 0; p < opts.VerifyProbes && res.Verified; p++ {
		scanIn := randomBits(rngProbe, d.Chain.Length)
		pi := randomBits(rngProbe, d.View.NumPI)
		chip.Reset()
		gotOut, gotPO := chip.Session(adapter.TestKey, scanIn, pi)
		probes++
		for _, seed := range res.SeedCandidates {
			wantOut, wantPO := v.Session(seed, scanIn, pi)
			if !eqBits(gotOut, wantOut) || !eqBits(gotPO, wantPO) {
				res.Verified = false
				break
			}
		}
	}
	verify.Add("probes", uint64(probes))
	verify.Add("candidates", uint64(len(res.SeedCandidates)))
	verify.End()
	res.Elapsed = time.Since(start)
	tr.Emit(trace.Event{Type: "result", Fields: map[string]any{
		"mode":            res.Mode.String(),
		"stopped":         res.Stopped,
		"stop_reason":     string(res.StopReason),
		"iterations":      res.Iterations,
		"queries":         res.Queries,
		"candidates":      len(res.SeedCandidates),
		"exact":           res.Exact,
		"converged":       res.Converged,
		"analytic":        res.Analytic,
		"verified":        res.Verified,
		"rank":            res.Rank,
		"oracle_sessions": oracleSessions,
		"oracle_cycles":   oracleCycles,
		"conflicts":       res.SolverStats.Conflicts,
		"elapsed_ms":      res.Elapsed.Milliseconds(),
	}})
	return res, nil
}

// runEngine runs the SAT attack on locked with the engine options opts
// selects and the given insight source (nil for none), then copies the
// engine's outcome and counters into res. Every attack mode goes through
// it, so each honours the same options.
func runEngine(ctx context.Context, locked *satattack.Locked, o satattack.Oracle, opts Options, insight satattack.InsightSource, res *Result) (*satattack.Result, error) {
	saRes, err := satattack.RunCtx(ctx, locked, o, satattack.Options{
		MaxIterations:  opts.MaxIterations,
		EnumerateLimit: opts.EnumerateLimit,
		ConflictBudget: opts.ConflictBudget,
		Log:            opts.Log,
		OnDIP:          opts.OnDIP,
		Search:         opts.Search,
		Insight:        insight,
	})
	if err != nil {
		return nil, err
	}
	res.Iterations = saRes.Iterations
	res.Converged = saRes.Converged
	res.Analytic = saRes.Analytic
	res.Exact = saRes.CandidatesExact
	res.SolverStats = saRes.SolverStats
	res.Stopped = saRes.Stopped
	res.StopReason = saRes.StopReason
	res.EncodeVars = saRes.EncodeVars
	res.EncodeClauses = saRes.EncodeClauses
	return saRes, nil
}

// Verifier replays scan sessions in closed form for a hypothesized seed —
// what the attacker does once a seed is recovered to drive the chain at
// will (and what the probe check uses).
type Verifier struct {
	d    *lock.Design
	seq  *sim.Seq
	a, b *gf2.Mat
}

// NewVerifier builds a verifier for the design, precomputing the session-0
// mask matrices. The sequential core runs on the AIG stepper; a view the
// AIG compiler rejects is an error.
func NewVerifier(d *lock.Design) (*Verifier, error) {
	A, B, err := maskMatrices(d, 0)
	if err != nil {
		return nil, err
	}
	seq, err := sim.NewSeqAIG(d.View)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Verifier{d: d, seq: seq, a: A, b: B}, nil
}

// Session predicts (scanOut, po) of a session-0 scan session under the
// given seed, using the closed-form masks.
func (v *Verifier) Session(seed gf2.Vec, scanIn, pi []bool) (scanOut, po []bool) {
	n := v.d.Chain.Length
	aMask := v.a.MulVec(seed)
	bMask := v.b.MulVec(seed)
	aPrime := make([]bool, n)
	for j := 0; j < n; j++ {
		aPrime[j] = scanIn[j] != aMask.Get(j)
	}
	v.seq.SetState(aPrime)
	po = v.seq.Step(pi)
	bPrime := v.seq.State()
	scanOut = make([]bool, n)
	for j := 0; j < n; j++ {
		scanOut[j] = bPrime[j] != bMask.Get(j)
	}
	return scanOut, po
}

// Unlock returns the de-obfuscation transform for a recovered seed: given
// an intended state a to deliver, the scan-in vector to apply, and given an
// observed scan-out, the true captured response. This is "gaining scan
// access" in the paper's sense.
func (v *Verifier) Unlock(seed gf2.Vec) (encodeIn func(a []bool) []bool, decodeOut func(b []bool) []bool) {
	aMask := v.a.MulVec(seed)
	bMask := v.b.MulVec(seed)
	n := v.d.Chain.Length
	encodeIn = func(a []bool) []bool {
		out := make([]bool, n)
		for j := range out {
			out[j] = a[j] != aMask.Get(j)
		}
		return out
	}
	decodeOut = func(b []bool) []bool {
		out := make([]bool, n)
		for j := range out {
			out[j] = b[j] != bMask.Get(j)
		}
		return out
	}
	return encodeIn, decodeOut
}

// ContainsSeed reports whether the candidate set includes the given seed.
// Experiments use this with the chip's programmed secret to score success.
func ContainsSeed(candidates []gf2.Vec, seed gf2.Vec) bool {
	for _, c := range candidates {
		if c.Equal(seed) {
			return true
		}
	}
	return false
}

// splitMix is a tiny deterministic PRNG for probe generation (keeps the
// package free of math/rand state in library code paths).
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func randomBits(r *splitMix, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = r.next()&1 == 1
	}
	return out
}

func eqBits(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
