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
	StopIterations = satattack.StopIterations
)

// Close re-exports the satattack classification of how a converged DIP
// loop ended.
type Close = satattack.Close

// Closing proofs (see satattack).
const (
	CloseMiter  = satattack.CloseMiter
	CloseUnique = satattack.CloseUnique
)

// MaxEnumerateLimit bounds Options.EnumerateLimit. The paper observes at
// most 128 candidates and the default limit is 256; a larger limit only
// lets the mask-coset expansion allocate for classes no attack reports.
const MaxEnumerateLimit = 1 << 16

// verifyProbes is the number of random probe sessions that check each
// recovered seed against the chip (attacker-side validation).
const verifyProbes = 8

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
	// EnumerateLimit bounds seed-candidate enumeration after convergence.
	// 0 selects the paper's practical bound of 256 (Table II observes at
	// most 128 candidates); the attack rejects a limit outside
	// [0, MaxEnumerateLimit].
	EnumerateLimit int
	// MaxIterations bounds the DIP loop (0 = unlimited).
	MaxIterations int
	// Log receives progress lines when non-nil.
	Log io.Writer
	// OnDIP, when non-nil, observes every DIP iteration (see
	// satattack.Options.OnDIP). The flight recorder installs it to persist
	// the per-iteration transcript; nil keeps the hot loop untouched.
	OnDIP satattack.DIPObserver
	// NativeXor, AIG and Simplify are ignored: every attack encodes from a
	// shared AIG with native XOR rows and runs inprocessing between DIPs
	// (see package satattack).
	//
	// Deprecated: ignored. They remain only because cmd/dynbench still
	// sets them; the next change to that benchmark deletes them.
	NativeXor, AIG, Simplify bool
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
	// Converged reports that the DIP loop proved no DIP remains (see
	// satattack.Result.Converged); Closed names the proof.
	Converged bool
	Closed    Close
	// Rank is rank([A;B]); PredictedLog2 = keyBits − Rank is the analytic
	// candidate-count exponent.
	Rank          int
	PredictedLog2 int
	// Verified reports that every candidate reproduced the chip's behavior
	// on the random probe sessions (attacker-side check).
	Verified bool
	// Elapsed is total attack wall time.
	Elapsed time.Duration
	// SolverStats snapshots the miter solver's CDCL counters.
	SolverStats sat.Stats
	// CheckStats snapshots the uniqueness check's solver counters (see
	// satattack.Result.CheckStats).
	CheckStats sat.Stats
	// Stopped is true when a deadline or cancellation bounded the attack
	// (see satattack.Result.Stopped); counters and any recovered
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
// model's I/O interface: model inputs (one PI block per capture, then a)
// map to one reset + session; model outputs are (the POs of each capture,
// observed scan-out).
type ChipOracle struct {
	Chip Chip
	// Sessions counts queries issued through this adapter.
	Sessions int
	testKey  []bool // all zeros: the attacker does not know SK
	captures int
}

// NewChipOracle builds the adapter for one-capture sessions under the
// all-zero test key.
func NewChipOracle(chip Chip) *ChipOracle {
	return &ChipOracle{Chip: chip, testKey: make([]bool, chip.Design().Config.KeyBits), captures: 1}
}

// Query implements satattack.Oracle.
func (o *ChipOracle) Query(in []bool) []bool {
	d := o.Chip.Design()
	numPI := d.View.NumPI
	pis := make([][]bool, o.captures)
	for c := range pis {
		pis[c] = in[c*numPI : (c+1)*numPI]
	}
	o.Chip.Reset()
	scanOut, pos := o.Chip.SessionN(o.testKey, in[o.captures*numPI:], pis)
	o.Sessions++
	out := make([]bool, 0, o.captures*d.View.NumPO+len(scanOut))
	for _, po := range pos {
		out = append(out, po...)
	}
	return append(out, scanOut...)
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
// verify, with one "unique" span per uniqueness check inside dip_loop;
// extract and enumerate run only when the miter closed the loop. With a
// background context and no sink, behavior is bit-identical to the
// unbounded sequential attack. A limit outside [0, MaxEnumerateLimit] is
// an error, returned before any model is built.
func AttackCtx(ctx context.Context, chip Chip, opts Options) (*Result, error) {
	return attack(ctx, chip, 1, opts)
}

// AttackMultiCtx runs the DynUnlock attack with a multi-capture session
// model: every DIP is one session with captures capture cycles, and the
// seed candidates are the seeds whose masks under that session's [A;B]
// reproduce a recovered mask. It does not combine them with the
// single-capture masks; a caller that intersects its candidates with
// Attack's gets the stacked rank of both, which prunes rank-deficient
// cases as the paper's "second capture" refinement describes. One capture
// is AttackCtx. The direct model addresses one-capture sessions only, so
// captures < 1, and ModeDirect with more than one capture, are errors,
// returned like a bad enumerate limit before any model is built.
func AttackMultiCtx(ctx context.Context, chip Chip, captures int, opts Options) (*Result, error) {
	return attack(ctx, chip, captures, opts)
}

// attack is the one body behind AttackCtx and AttackMultiCtx.
func attack(ctx context.Context, chip Chip, captures int, opts Options) (*Result, error) {
	switch {
	case opts.EnumerateLimit < 0 || opts.EnumerateLimit > MaxEnumerateLimit:
		return nil, fmt.Errorf("core: enumerate limit %d outside [0, %d]", opts.EnumerateLimit, MaxEnumerateLimit)
	case captures < 1:
		return nil, fmt.Errorf("core: captures %d must be >= 1", captures)
	case captures > 1 && opts.Mode == ModeDirect:
		return nil, fmt.Errorf("core: the direct model has one capture, not %d", captures)
	}
	tr := trace.From(ctx)
	start := time.Now()
	d := chip.Design()
	if opts.EnumerateLimit == 0 {
		opts.EnumerateLimit = 256
	}

	// Tester-time accounting: every scan session reports its cycle cost.
	// The previous hook is chained and restored so nested attacks compose.
	// The metrics instruments are nil (no-op) without a registry on ctx.
	mr := metrics.From(ctx)
	sessCtr := mr.Counter(metrics.MetricOracleSessions)
	cycleCtr := mr.Counter(metrics.MetricOracleCycles)
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

	// The attacker applies the all-zero test key: any (almost surely
	// mismatching) external key lets the PRNG drive the key gates.
	adapter := NewChipOracle(chip)
	adapter.captures = captures

	res := &Result{Mode: opts.Mode}
	var A, B *gf2.Mat // the model's masks, which verification reuses
	switch opts.Mode {
	case ModeDirect:
		unroll := tr.Start("unroll")
		model, err := BuildModel(d, 0)
		if err != nil {
			unroll.End()
			return nil, err
		}
		A, B = model.A, model.B
		res.Rank = model.Rank()
		res.PredictedLog2 = model.PredictedCandidatesLog2()
		unroll.Add("key_bits", uint64(d.Config.KeyBits))
		unroll.Add("rank", uint64(res.Rank))
		unroll.End()
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "direct model: %s; rank[A;B]=%d predicted candidates=2^%d\n",
				model.Netlist.Stats(), res.Rank, res.PredictedLog2)
		}
		saRes, err := runEngine(ctx, model.Locked, adapter, opts, res)
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
		mm, err := BuildMaskModel(d, 0, captures)
		if err != nil {
			unroll.End()
			return nil, err
		}
		A, B = mm.A, mm.B
		res.Rank = gf2.Rank(gf2.VStack(A, B))
		res.PredictedLog2 = d.Config.KeyBits - res.Rank
		unroll.Add("key_bits", uint64(d.Config.KeyBits))
		unroll.Add("rank", uint64(res.Rank))
		if captures > 1 {
			unroll.Add("captures", uint64(captures))
		}
		unroll.End()
		if opts.Log != nil {
			g := mm.Locked.Graph
			fmt.Fprintf(opts.Log, "mask model: %d inputs (%d key), %d outputs, %d AND and %d XOR nodes; rank[A;B]=%d predicted candidates=2^%d\n",
				g.NumInputs(), len(mm.Locked.KeyIdx), len(g.Outputs()), g.NumAnds(), g.NumXors(), res.Rank, res.PredictedLog2)
		}
		saRes, err := runEngine(ctx, mm.Locked, adapter, opts, res)
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

	// A partial candidate set from a stopped run is still verified — the
	// probes are closed-form, not SAT work.
	verified, err := verifyCandidates(tr, chip, adapter.testKey, res.SeedCandidates, verifyProbes, captures, A, B)
	if err != nil {
		return nil, err
	}
	res.Verified = verified
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
		"closed":          string(res.Closed),
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
// selects, then copies the engine's outcome and counters into res. Every
// attack mode goes through it, so each honours the same options.
func runEngine(ctx context.Context, locked *satattack.Locked, o satattack.Oracle, opts Options, res *Result) (*satattack.Result, error) {
	saRes, err := satattack.RunCtx(ctx, locked, o, satattack.Options{
		MaxIterations:  opts.MaxIterations,
		EnumerateLimit: opts.EnumerateLimit,
		Log:            opts.Log,
		OnDIP:          opts.OnDIP,
	})
	if err != nil {
		return nil, err
	}
	res.Iterations = saRes.Iterations
	res.Converged = saRes.Converged
	res.Closed = saRes.Closed
	res.Exact = saRes.CandidatesExact
	res.SolverStats = saRes.SolverStats
	res.CheckStats = saRes.CheckStats
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
	A, B, err := maskMatricesN(d, 0, 1)
	if err != nil {
		return nil, err
	}
	return newVerifier(d, A, B)
}

// newVerifier builds a verifier for session-0 sessions from their mask
// matrices; the attacks pass their model's, so each attack unrolls the
// key register once. It steps the design's one compiled core (Core).
func newVerifier(d *lock.Design, A, B *gf2.Mat) (*Verifier, error) {
	g, err := d.Core()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Verifier{d: d, seq: sim.NewSeqAIG(d.View, g), a: A, b: B}, nil
}

// sessionN predicts a session with one capture cycle per entry of pis; the
// verifier's B must be that capture count's.
func (v *Verifier) sessionN(seed gf2.Vec, scanIn []bool, pis [][]bool) (scanOut []bool, pos [][]bool) {
	n := v.d.Chain.Length
	aMask := v.a.MulVec(seed)
	bMask := v.b.MulVec(seed)
	aPrime := make([]bool, n)
	for j := 0; j < n; j++ {
		aPrime[j] = scanIn[j] != aMask.Get(j)
	}
	v.seq.SetState(aPrime)
	for _, pi := range pis {
		pos = append(pos, v.seq.Step(pi))
	}
	bPrime := v.seq.State()
	scanOut = make([]bool, n)
	for j := 0; j < n; j++ {
		scanOut[j] = bPrime[j] != bMask.Get(j)
	}
	return scanOut, pos
}

// verifyCandidates is the attacker-side check, under a "verify" span:
// every candidate must reproduce the chip on probes fresh random sessions
// with the given number of capture cycles, predicted in closed form from
// that session's mask matrices A and B. An empty candidate set is not
// verified.
func verifyCandidates(tr *trace.Tracer, chip Chip, testKey []bool, seeds []gf2.Vec, probes, captures int, A, B *gf2.Mat) (bool, error) {
	verify := tr.Start("verify")
	defer verify.End()
	d := chip.Design()
	v, err := newVerifier(d, A, B)
	if err != nil {
		return false, err
	}
	ok := len(seeds) > 0
	rng := newSplitMix(0x9e3779b97f4a7c15)
	n := 0
	for ; n < probes && ok; n++ {
		scanIn := randomBits(rng, d.Chain.Length)
		pis := make([][]bool, captures)
		for c := range pis {
			pis[c] = randomBits(rng, d.View.NumPI)
		}
		chip.Reset()
		gotOut, gotPOs := chip.SessionN(testKey, scanIn, pis)
		for _, seed := range seeds {
			wantOut, wantPOs := v.sessionN(seed, scanIn, pis)
			if !eqBits(gotOut, wantOut) || !eqBitRows(gotPOs, wantPOs) {
				ok = false
				break
			}
		}
	}
	verify.Add("probes", uint64(n))
	verify.Add("candidates", uint64(len(seeds)))
	return ok, nil
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

func eqBitRows(a, b [][]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eqBits(a[i], b[i]) {
			return false
		}
	}
	return true
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
