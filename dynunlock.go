package dynunlock

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"dynunlock/internal/anatomy"
	"dynunlock/internal/bench"
	"dynunlock/internal/core"
	"dynunlock/internal/flight"
	"dynunlock/internal/gf2"
	"dynunlock/internal/insight"
	"dynunlock/internal/lock"
	"dynunlock/internal/metrics"
	"dynunlock/internal/netlist"
	"dynunlock/internal/oracle"
	"dynunlock/internal/sat"
	"dynunlock/internal/satattack"
	"dynunlock/internal/scan"
	"dynunlock/internal/stream"
	"dynunlock/internal/trace"
)

// Policy re-exports the key-update policies for facade users.
type Policy = scan.Policy

// Key-update policies (see internal/scan).
const (
	Static     = scan.Static
	PerPattern = scan.PerPattern
	PerCycle   = scan.PerCycle
)

// Mode re-exports the attack formulation selector.
type Mode = core.Mode

// Attack formulations (see internal/core).
const (
	ModeLinear = core.ModeLinear
	ModeDirect = core.ModeDirect
)

// ExperimentConfig describes one paper-style experiment: a benchmark locked
// with a key of the given width and policy, attacked over several secret
// seeds.
type ExperimentConfig struct {
	// Benchmark is a Table II benchmark name (s5378 … b17).
	Benchmark string
	// KeyBits is the key width (128 in Table II; 144–368 in Table III).
	KeyBits int
	// Policy is the defense family (PerCycle = EFF-Dyn, the paper's
	// target). The zero value is Static; Table II/III use PerCycle.
	Policy Policy
	// Period is the per-pattern update period (PerPattern only).
	Period int
	// Scale divides the circuit size for quick runs (1 or 0 = paper scale).
	Scale int
	// Trials is the number of secret seeds (the paper averages over 10).
	// 0 selects 1.
	Trials int
	// Mode selects the attack formulation (default ModeLinear).
	Mode Mode
	// Portfolio is the number of diversified SAT solver instances racing
	// each SAT call within a trial (<= 1 = sequential).
	Portfolio int
	// EnumerateLimit bounds seed-candidate enumeration (0 = 256).
	EnumerateLimit int
	// MaxIterations bounds each trial's DIP loop (0 = unlimited); extraction
	// and enumeration still run on the accumulated constraints.
	MaxIterations int
	// SeedBase derives the per-trial secrets; experiments with the same
	// base are reproducible.
	SeedBase int64
	// Analytic closes the insight feedback loop: the tracker's certified
	// seed constraints are injected into the SAT solver after each DIP and
	// the attack short-circuits analytically once they reach full key rank
	// (see core.Options.Insight). Implies running the insight tracker even
	// without metrics or tracing sinks.
	Analytic bool
	// Recorder, when non-nil, captures the experiment as a flight-recorder
	// bundle: the manifest is written from the resolved design, every scan
	// session and DIP iteration streams into the bundle, and each trial's
	// outcome is appended to result.json. Nil costs nothing — the attack
	// path is untouched.
	Recorder *flight.Recorder
	// ChipWrapper, when non-nil, wraps each trial's fabricated chip before
	// the attack (and before the Recorder's own wrapping, so a recorder
	// sees the wrapped chip's answers). The resume path uses this to chain
	// a transcript replay in front of the live chip; success scoring still
	// reads the secret seed from the unwrapped oracle.
	ChipWrapper func(trial int, chip core.Chip) core.Chip
	// Stream, when non-nil, publishes live attack events to the bus: one
	// "dip" event per DIP iteration and a terminal "result" via the trace
	// layer. With no subscribers attached the publish path is a single
	// atomic load and allocates nothing, so an idle bus never perturbs the
	// attack (pinned by TestStreamDoesNotPerturbAttack).
	Stream *stream.Bus
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// TrialResult is the outcome of one attack run.
type TrialResult struct {
	Candidates int
	Iterations int
	Queries    int
	Seconds    float64
	Rank       int
	Exact      bool
	Converged  bool
	Verified   bool
	// Analytic reports the trial ended via the insight rank-k short-circuit
	// rather than SAT convergence (see core.Result.Analytic).
	Analytic bool
	// Success is the paper's criterion: the programmed secret seed is in
	// the recovered candidate set.
	Success bool
	// Stopped and StopReason report a deadline/cancellation/budget bound on
	// this trial (see core.Result); the trial's counters stay valid.
	Stopped    bool
	StopReason core.StopReason
	// SolverStats snapshots the CDCL solver counters for the trial (summed
	// over portfolio instances), making perf trajectories comparable across
	// machines: conflicts don't depend on clock speed.
	SolverStats sat.Stats
}

// ExperimentResult aggregates an experiment's trials.
type ExperimentResult struct {
	Entry  bench.Entry
	Config ExperimentConfig
	Trials []TrialResult
	// Stopped is true when a deadline, cancellation, or budget cut the
	// experiment short: the trial that hit the bound is the last entry and
	// later trials never ran. StopReason classifies the bound.
	Stopped    bool
	StopReason core.StopReason
}

// AvgCandidates returns the mean candidate count across trials.
func (r *ExperimentResult) AvgCandidates() float64 {
	return r.avg(func(t TrialResult) float64 { return float64(t.Candidates) })
}

// AvgIterations returns the mean SAT-attack iteration count.
func (r *ExperimentResult) AvgIterations() float64 {
	return r.avg(func(t TrialResult) float64 { return float64(t.Iterations) })
}

// AvgSeconds returns the mean attack wall time in seconds.
func (r *ExperimentResult) AvgSeconds() float64 {
	return r.avg(func(t TrialResult) float64 { return t.Seconds })
}

// TotalConflicts sums solver conflicts across trials: a machine-independent
// work measure for perf trajectories.
func (r *ExperimentResult) TotalConflicts() uint64 {
	var sum uint64
	for _, t := range r.Trials {
		sum += t.SolverStats.Conflicts
	}
	return sum
}

// AllSucceeded reports whether every trial recovered the secret seed.
func (r *ExperimentResult) AllSucceeded() bool {
	for _, t := range r.Trials {
		if !t.Success {
			return false
		}
	}
	return len(r.Trials) > 0
}

func (r *ExperimentResult) avg(f func(TrialResult) float64) float64 {
	if len(r.Trials) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range r.Trials {
		sum += f(t)
	}
	return sum / float64(len(r.Trials))
}

// ParallelDefault returns the worker count for concurrent sweeps: the
// DYNUNLOCK_PARALLEL environment variable when set to a positive integer,
// otherwise runtime.GOMAXPROCS(0). A value of 1 forces the sequential
// reference path everywhere.
func ParallelDefault() int {
	if s := os.Getenv("DYNUNLOCK_PARALLEL"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 {
			return v
		}
	}
	return runtime.GOMAXPROCS(0)
}

// LockBenchmark builds the synthetic stand-in for a named benchmark,
// applies scan locking, and returns the attacker-visible design.
func LockBenchmark(name string, keyBits int, policy Policy, scale int) (*lock.Design, error) {
	entry, ok := bench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("dynunlock: unknown benchmark %q", name)
	}
	if scale > 1 {
		entry = entry.Scaled(scale)
	}
	n, err := entry.Build(0)
	if err != nil {
		return nil, err
	}
	return lock.Lock(n, lock.Config{KeyBits: keyBits, Policy: policy})
}

// LockNetlist applies scan locking to a user-provided netlist.
func LockNetlist(n *netlist.Netlist, keyBits int, policy Policy) (*lock.Design, error) {
	return lock.Lock(n, lock.Config{KeyBits: keyBits, Policy: policy})
}

// Fabricate programs a design into a chip with the given secrets. A nil
// secretSeed or authKey is drawn from rngSeed.
func Fabricate(d *lock.Design, rngSeed int64) (*oracle.Chip, error) {
	rng := rand.New(rand.NewSource(rngSeed))
	k := d.Config.KeyBits
	seed := gf2.NewVec(k)
	for i := 0; i < k; i++ {
		if rng.Intn(2) == 1 {
			seed.Set(i, true)
		}
	}
	if seed.IsZero() {
		seed.Set(rng.Intn(k), true)
	}
	authKey := make([]bool, k)
	for i := range authKey {
		authKey[i] = rng.Intn(2) == 1
	}
	// The attacker's arbitrary test key defaults to all zeros; keep the
	// authentication secret distinct so the PRNG path is exercised.
	authKey[0] = true
	return oracle.New(d, seed, authKey)
}

// Unlock attacks a chip and returns the attack result (see core.Result).
// The chip may be a fabricated simulator (*oracle.Chip) or any other
// core.Chip implementation, e.g. a flight-recorder replay oracle. Unlock is
// UnlockCtx under context.Background().
func Unlock(chip core.Chip, opts core.Options) (*core.Result, error) {
	return UnlockCtx(context.Background(), chip, opts)
}

// UnlockCtx is Unlock with cancellation and tracing (see core.AttackCtx).
func UnlockCtx(ctx context.Context, chip core.Chip, opts core.Options) (*core.Result, error) {
	return core.AttackCtx(ctx, chip, opts)
}

// RunExperiment locks the configured benchmark once and attacks it across
// Trials independently drawn secret seeds, as in the paper's evaluation
// ("run for 10 different LFSR seeds … averaged over these 10 runs").
// RunExperiment is RunExperimentCtx under context.Background().
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	return RunExperimentCtx(context.Background(), cfg)
}

// ctxStop maps a context error to the core stop classification for bounds
// that fire between trials (inside a trial, core.AttackCtx classifies).
func ctxStop(ctx context.Context) core.StopReason {
	if ctx.Err() == context.DeadlineExceeded {
		return core.StopDeadline
	}
	return core.StopCancelled
}

// RunExperimentCtx is RunExperiment with cancellation and tracing. A
// deadline, cancellation, or budget stops the experiment at the bound: the
// trial in flight returns its partial result (recorded with Stopped set)
// and later trials never start. The partial ExperimentResult is returned
// with Stopped set — never an error. A trace sink on ctx observes every
// trial's stage spans and "result" events plus one final "experiment"
// event summarizing the run.
func RunExperimentCtx(ctx context.Context, cfg ExperimentConfig) (*ExperimentResult, error) {
	tr := trace.From(ctx)
	entry, ok := bench.ByName(cfg.Benchmark)
	if !ok {
		return nil, fmt.Errorf("dynunlock: unknown benchmark %q", cfg.Benchmark)
	}
	if cfg.Scale > 1 {
		entry = entry.Scaled(cfg.Scale)
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	n, err := entry.Build(0)
	if err != nil {
		return nil, err
	}
	design, err := lock.Lock(n, lock.Config{
		KeyBits: cfg.KeyBits,
		Policy:  cfg.Policy,
		Period:  cfg.Period,
	})
	if err != nil {
		return nil, err
	}
	res := &ExperimentResult{Entry: entry, Config: cfg}
	// Anatomy capture rides the same "telemetry is live" gate as the other
	// observers: a recorder persists it as anatomy.json, a stream bus
	// publishes "stage" events from it, and a metrics registry surfaces it
	// as dynunlock_anatomy_* series. With none of the three the capture is
	// never built and the solver stays hook-free.
	mh := metrics.From(ctx)
	var cap *anatomy.Capture
	if cfg.Recorder != nil || cfg.Stream != nil || mh != nil {
		cap = anatomy.NewCapture()
	}
	if cfg.Recorder != nil {
		if err := cfg.Recorder.WriteManifest(flight.Manifest{
			Tool:           cfg.Recorder.Tool,
			Benchmark:      cfg.Benchmark,
			Scale:          cfg.Scale,
			Trials:         cfg.Trials,
			Mode:           cfg.Mode.String(),
			Portfolio:      cfg.Portfolio,
			EnumerateLimit: cfg.EnumerateLimit,
			MaxIterations:  cfg.MaxIterations,
			SeedBase:       cfg.SeedBase,
			Analytic:       cfg.Analytic,
			Anatomy:        cap != nil,
			Lock:           flight.LockInfoFor(design),
			Fingerprint:    flight.NewFingerprint(),
		}); err != nil {
			return nil, err
		}
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		if ctx.Err() != nil {
			res.Stopped, res.StopReason = true, ctxStop(ctx)
			break
		}
		chip, err := Fabricate(design, cfg.SeedBase+int64(trial)*7919+1)
		if err != nil {
			return nil, err
		}
		opts := core.Options{
			Mode:           cfg.Mode,
			Portfolio:      cfg.Portfolio,
			EnumerateLimit: cfg.EnumerateLimit,
			MaxIterations:  cfg.MaxIterations,
			Log:            cfg.Log,
		}
		var atkChip core.Chip = chip
		if cfg.ChipWrapper != nil {
			atkChip = cfg.ChipWrapper(trial, atkChip)
		}
		if cfg.Recorder != nil {
			atkChip = cfg.Recorder.WrapChip(trial, atkChip)
			opts.OnDIP = cfg.Recorder.DIPHook(trial)
		}
		if cap != nil {
			cap.StartTrial(trial)
			opts.Search = cap
			opts.OnDIP = satattack.ChainObservers(opts.OnDIP, cap.ObserveDIP)
			opts.OnDIP = satattack.ChainObservers(opts.OnDIP, stagePublisher(cfg.Stream, mh, cap, trial))
		}
		// Seed-space insight rides the same OnDIP hook whenever telemetry
		// is live: a registry or trace sink on ctx turns the tracker on, no
		// sinks leaves the hot loop untouched. Analytic mode forces the
		// tracker on and additionally feeds its certified rows back into
		// the solver. A tracker setup failure (e.g. a nonlinear PRNG the
		// linear model refuses) degrades to an untracked (and non-analytic)
		// run rather than failing the attack.
		if mh != nil || tr.Enabled() || cfg.Analytic {
			if tk, err := insight.New(design, insight.Options{Metrics: mh, Tracer: tr}); err == nil {
				opts.OnDIP = satattack.ChainObservers(opts.OnDIP, tk.DIPObserver())
				if cfg.Analytic {
					opts.Insight = tk
				}
			} else if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "insight tracker disabled: %v\n", err)
			}
		}
		if cfg.Stream != nil {
			opts.OnDIP = satattack.ChainObservers(opts.OnDIP, dipPublisher(cfg.Stream, trial))
		}
		start := time.Now()
		atk, err := core.AttackCtx(ctx, atkChip, opts)
		if cap != nil {
			cap.EndTrial()
		}
		if err != nil {
			return nil, fmt.Errorf("dynunlock: %s trial %d: %w", entry.Name, trial, err)
		}
		res.Trials = append(res.Trials, TrialResult{
			Candidates:  len(atk.SeedCandidates),
			Iterations:  atk.Iterations,
			Queries:     atk.Queries,
			Seconds:     time.Since(start).Seconds(),
			Rank:        atk.Rank,
			Exact:       atk.Exact,
			Converged:   atk.Converged,
			Verified:    atk.Verified,
			Analytic:    atk.Analytic,
			Success:     core.ContainsSeed(atk.SeedCandidates, chip.SecretSeed()),
			SolverStats: atk.SolverStats,
			Stopped:     atk.Stopped,
			StopReason:  atk.StopReason,
		})
		if cfg.Recorder != nil {
			t := res.Trials[len(res.Trials)-1]
			cfg.Recorder.RecordTrial(flight.TrialFromResult(
				trial, chip.SecretSeed(), atk, t.Seconds, t.Success))
		}
		if cfg.Log != nil {
			t := res.Trials[len(res.Trials)-1]
			fmt.Fprintf(cfg.Log, "%s k=%d trial %d: candidates=%d iters=%d %.2fs success=%v\n",
				entry.Name, cfg.KeyBits, trial, t.Candidates, t.Iterations, t.Seconds, t.Success)
		}
		// An iteration bound is per trial; every other bound ends the
		// experiment where it stands.
		if atk.Stopped && atk.StopReason != core.StopIterations {
			res.Stopped, res.StopReason = true, atk.StopReason
			break
		}
	}
	if cfg.Recorder != nil && res.Stopped {
		cfg.Recorder.SetStopped(true, string(res.StopReason))
	}
	if cfg.Recorder != nil && cap != nil {
		if err := cfg.Recorder.WriteAnatomy(cap.Doc()); err != nil {
			return nil, err
		}
	}
	var itersTotal, queriesTotal int
	var conflictsTotal, propsTotal uint64
	for _, t := range res.Trials {
		itersTotal += t.Iterations
		queriesTotal += t.Queries
		conflictsTotal += t.SolverStats.Conflicts
		propsTotal += t.SolverStats.Propagations
	}
	tr.Emit(trace.Event{Type: "experiment", Fields: map[string]any{
		"benchmark":    entry.Name,
		"key_bits":     cfg.KeyBits,
		"policy":       cfg.Policy.String(),
		"trials_run":   len(res.Trials),
		"trials_want":  cfg.Trials,
		"stopped":      res.Stopped,
		"stop_reason":  string(res.StopReason),
		"succeeded":    res.AllSucceeded(),
		"iterations":   itersTotal,
		"queries":      queriesTotal,
		"conflicts":    conflictsTotal,
		"propagations": propsTotal,
	}})
	return res, nil
}

// stagePublisher surfaces the anatomy capture live at each DIP boundary:
// one "stage" stream event (trial, iteration, per-iteration solve time and
// difficulty, cumulative sampled LBD mean, restarts, XOR share) and the
// dynunlock_anatomy_* metrics series. The bus path is gated on Enabled so
// an idle bus costs one atomic load; the metrics handle is nil-safe.
func stagePublisher(bus *stream.Bus, mh *metrics.Handle, cap *anatomy.Capture, trial int) satattack.DIPObserver {
	var prev sat.Stats
	return func(iter int, _, _ []bool, stats sat.Stats, solveTime time.Duration) {
		delta := flight.SolverStats{
			Conflicts:    stats.Conflicts - prev.Conflicts,
			Propagations: stats.Propagations - prev.Propagations,
		}
		prev = stats
		difficulty := anatomy.Difficulty(delta)
		xorShare := 0.0
		if stats.Propagations > 0 {
			xorShare = float64(stats.XorPropagations) / float64(stats.Propagations)
		}
		if mh != nil {
			meanLBD, _, restarts := cap.Live()
			mh.Gauge(metrics.MetricAnatomySolveSeconds).Add(solveTime.Seconds())
			mh.Gauge(metrics.MetricAnatomyLBDMean).Set(meanLBD)
			mh.Gauge(metrics.MetricAnatomyRestarts).Set(float64(restarts))
			mh.Gauge(metrics.MetricAnatomyDifficulty).Set(difficulty)
			mh.Gauge(metrics.MetricAnatomyXorShare).Set(xorShare)
		}
		if bus != nil && bus.Enabled() {
			meanLBD, samples, restarts := cap.Live()
			bus.Publish(stream.TypeStage, map[string]any{
				"trial":       trial,
				"iteration":   iter,
				"solve_ms":    float64(solveTime) / float64(time.Millisecond),
				"difficulty":  difficulty,
				"lbd_mean":    meanLBD,
				"lbd_samples": samples,
				"restarts":    restarts,
				"xor_share":   xorShare,
			})
		}
	}
}

// dipPublisher adapts a DIP iteration into one "dip" stream event. The
// Enabled check keeps the no-subscriber path allocation-free: the maps and
// bit strings below are only built when someone is listening.
func dipPublisher(bus *stream.Bus, trial int) satattack.DIPObserver {
	return func(iter int, dip, resp []bool, stats sat.Stats, solveTime time.Duration) {
		if !bus.Enabled() {
			return
		}
		bus.Publish(stream.TypeDIP, map[string]any{
			"trial":        trial,
			"iteration":    iter,
			"dip":          flight.BitString(dip),
			"response":     flight.BitString(resp),
			"conflicts":    stats.Conflicts,
			"propagations": stats.Propagations,
			"learnt":       stats.Learnt,
			"solve_ms":     float64(solveTime) / float64(time.Millisecond),
		})
	}
}
