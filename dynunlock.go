package dynunlock

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"dynunlock/internal/anatomy"
	"dynunlock/internal/bench"
	"dynunlock/internal/core"
	"dynunlock/internal/flight"
	"dynunlock/internal/gf2"
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
	// EnumerateLimit bounds seed-candidate enumeration (0 = 256).
	EnumerateLimit int
	// MaxIterations bounds each trial's DIP loop (0 = unlimited); extraction
	// and enumeration still run on the accumulated constraints.
	MaxIterations int
	// SeedBase derives the per-trial secrets; experiments with the same
	// base are reproducible.
	SeedBase int64
	// Recorder, when non-nil, captures the experiment as a flight-recorder
	// bundle, and RunExperimentCtx wires all of it: the manifest is written
	// from the resolved design, every scan session and DIP iteration
	// streams into the bundle, the run's trace events land in trace.jsonl
	// (its closing metrics sample is the bundle's one copy of the run's
	// metrics), and each trial's outcome is appended to result.json. The
	// caller only creates the recorder and closes it afterwards. Nil costs
	// nothing — the attack path is untouched.
	Recorder *flight.Recorder
	// ChipWrapper, when non-nil, wraps each trial's fabricated chip before
	// the attack (and before the Recorder's own wrapping, so a recorder
	// sees the wrapped chip's answers). The resume path uses this to chain
	// a transcript replay in front of the live chip; success scoring still
	// reads the secret seed from the unwrapped oracle.
	ChipWrapper func(trial int, chip core.Chip) core.Chip
	// Stream, when non-nil, publishes live attack events to the bus: one
	// "dip" event per DIP iteration carrying the DIP, the solver counters
	// and the search anatomy, plus the run's "span" and "result" events
	// and its periodic metrics sample as "delta" events, all of which
	// RunExperimentCtx bridges from its trace.
	// With no subscribers attached the publish path is a single atomic
	// load and allocates nothing, so an idle bus never perturbs the attack
	// (pinned by TestStreamDoesNotPerturbAttack).
	Stream *stream.Bus
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// ExperimentResult aggregates an experiment's trials. Each trial is the
// record a Recorder appends to result.json (see flight.TrialFromResult),
// so a recorded run returns exactly the trials its bundle holds;
// flight.Summarize reduces them to the paper's Table II columns.
type ExperimentResult struct {
	Entry  bench.Entry
	Config ExperimentConfig
	Trials []flight.TrialRecord
	// Stopped is true when a deadline or cancellation cut the experiment
	// short: the trial that hit the bound is the last entry and later
	// trials never ran. StopReason classifies the bound.
	Stopped    bool
	StopReason core.StopReason
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

// ctxStop maps a context error to the core stop classification for bounds
// that fire between trials (inside a trial, core.AttackCtx classifies).
func ctxStop(ctx context.Context) core.StopReason {
	if ctx.Err() == context.DeadlineExceeded {
		return core.StopDeadline
	}
	return core.StopCancelled
}

// RunExperimentCtx locks the configured benchmark once and attacks it
// across Trials independently drawn secret seeds, as in the paper's
// evaluation ("run for 10 different LFSR seeds … averaged over these 10
// runs"), with cancellation and tracing. A deadline or cancellation
// stops the experiment at the bound: the trial in flight returns its
// partial result (recorded with Stopped set) and later trials never
// start. The partial ExperimentResult is returned with Stopped set —
// never an error. A trace sink on ctx observes every trial's stage spans
// and "result" events plus one final "experiment" event summarizing the
// run.
//
// RunExperimentCtx is the one place a run's telemetry is wired. The run
// is live when a recorder, a stream bus or a metrics registry is
// attached. The registry on ctx is the run's metrics scope, and a live
// run without one gets a private registry, so the solver hook, the
// sampler, the recorder and the "dip" events all read one scope: that
// registry. Each trial of a live run gets one OnDIP observer (see
// dipObserver), and the recorder and the bus bridge join whatever trace
// sink the caller installed on ctx. A run with a registry and a trace
// sink samples it every metrics.ProgressInterval, and once more after the
// last trial, as "snapshot" events naming the run (see
// metrics.StartSampling). A run that is not live installs no hook at
// all. Runs that execute concurrently need registries of their own;
// bench.SweepCtx hands one to each item.
func RunExperimentCtx(ctx context.Context, cfg ExperimentConfig) (*ExperimentResult, error) {
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
	mr := metrics.From(ctx)
	if mr == nil && (cfg.Recorder != nil || cfg.Stream != nil) {
		mr = metrics.NewRegistry()
		ctx = metrics.With(ctx, mr)
	}
	live := mr != nil
	if rec := cfg.Recorder; rec != nil {
		if err := rec.WriteManifest(flight.Manifest{
			Tool:           rec.Tool,
			Benchmark:      cfg.Benchmark,
			Scale:          cfg.Scale,
			Trials:         cfg.Trials,
			Mode:           cfg.Mode.String(),
			EnumerateLimit: cfg.EnumerateLimit,
			MaxIterations:  cfg.MaxIterations,
			SeedBase:       cfg.SeedBase,
			Lock:           flight.LockInfoFor(design),
			Fingerprint:    flight.NewFingerprint(),
		}); err != nil {
			return nil, err
		}
		ctx = trace.With(ctx, rec)
	}
	if cfg.Stream != nil {
		ctx = trace.With(ctx, streamSink{cfg.Stream})
	}
	tr := trace.From(ctx)
	// The run samples its own registry while it has one and a trace sink;
	// the closing sample lands before the experiment event.
	stopSampling := metrics.StartSampling(mr, tr, map[string]any{
		"benchmark": entry.Name,
		"key_bits":  cfg.KeyBits,
	})
	defer stopSampling()
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
		}
		if live {
			opts.OnDIP = dipObserver(cfg.Recorder, cfg.Stream, satattack.LearntLBD(mr), trial)
		}
		start := time.Now()
		atk, err := core.AttackCtx(ctx, atkChip, opts)
		if err != nil {
			return nil, fmt.Errorf("dynunlock: %s trial %d: %w", entry.Name, trial, err)
		}
		secret := chip.SecretSeed()
		t := flight.TrialFromResult(trial, secret, atk, time.Since(start).Seconds(),
			core.ContainsSeed(atk.SeedCandidates, secret))
		res.Trials = append(res.Trials, t)
		if cfg.Recorder != nil {
			cfg.Recorder.RecordTrial(t)
		}
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "%s k=%d trial %d: candidates=%d iters=%d %.2fs success=%v\n",
				entry.Name, cfg.KeyBits, trial, len(t.SeedCandidates), t.Iterations, t.Seconds, t.Success)
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
	sum := flight.Summarize(res.Trials)
	stopSampling()
	tr.Emit(trace.Event{Type: "experiment", Fields: map[string]any{
		"benchmark":    entry.Name,
		"key_bits":     cfg.KeyBits,
		"policy":       cfg.Policy.String(),
		"trials_run":   sum.Trials,
		"trials_want":  cfg.Trials,
		"stopped":      res.Stopped,
		"stop_reason":  string(res.StopReason),
		"succeeded":    sum.Broken,
		"iterations":   sum.TotalIterations,
		"queries":      sum.TotalQueries,
		"conflicts":    sum.TotalConflicts,
		"propagations": sum.TotalPropagations,
	}})
	return res, nil
}

// dipObserver is a trial's one OnDIP hook. At each DIP it appends the
// dips.jsonl record and publishes one "dip" event carrying all of it: the
// DIP and response bits, the solver counters and solve_ms; and the
// iteration's difficulty, the trial's restarts, its sampled LBD count and
// mean, and the XOR propagation share. lbd is the run's learnt-LBD
// series; the trial's share of it is its reading now minus its reading
// when the observer is made, at trial start. Each nil part is skipped.
// The bit strings and the event map are only built when a recorder or a
// subscriber needs them, so an idle bus costs one atomic load.
func dipObserver(rec *flight.Recorder, bus *stream.Bus, lbd *metrics.Histogram, trial int) satattack.DIPObserver {
	var prev sat.Stats
	lbdCount0, lbdSum0 := lbd.Count(), lbd.Sum()
	return func(iter int, dip, resp []bool, stats sat.Stats, solveTime time.Duration) {
		d := flight.DIPRecord{
			Trial:     trial,
			Iteration: iter,
			Solver:    flight.FromSatStats(stats),
			SolveMS:   float64(solveTime) / float64(time.Millisecond),
		}
		publish := bus.Enabled()
		if rec != nil || publish {
			d.DIP, d.Response = flight.BitString(dip), flight.BitString(resp)
		}
		if rec != nil {
			rec.AppendDIP(d)
		}
		delta := flight.SolverStats{
			Conflicts:    stats.Conflicts - prev.Conflicts,
			Propagations: stats.Propagations - prev.Propagations,
		}
		prev = stats
		if !publish {
			return
		}
		xorShare := 0.0
		if stats.Propagations > 0 {
			xorShare = float64(stats.XorPropagations) / float64(stats.Propagations)
		}
		lbdSamples, lbdMean := lbd.Count()-lbdCount0, 0.0
		if lbdSamples > 0 {
			lbdMean = (lbd.Sum() - lbdSum0) / float64(lbdSamples)
		}
		data := map[string]any{
			"trial":        trial,
			"iteration":    iter,
			"dip":          d.DIP,
			"response":     d.Response,
			"conflicts":    stats.Conflicts,
			"propagations": stats.Propagations,
			"learnt":       stats.Learnt,
			"solve_ms":     d.SolveMS,
			"difficulty":   anatomy.Difficulty(delta),
			"lbd_mean":     lbdMean,
			"lbd_samples":  lbdSamples,
			"restarts":     stats.Restarts,
			"xor_share":    xorShare,
		}
		bus.Publish(stream.TypeDIP, data)
	}
}

// streamSink bridges a run's trace events onto its stream bus:
//
//	span_end   → "span"   {span, dur_ms, counters?}
//	result     → "result" with data.scope = "trial"
//	experiment → "result" with data.scope = "experiment"
//	            (the terminal event a `runs watch` session exits 0 on)
//	snapshot   → "delta"  the run's periodic metrics sample
//
// Other trace events are dropped: span_start (span_end carries the
// duration) and progress (free text). The sink checks bus.Enabled()
// before building any payload, preserving the no-subscriber
// zero-allocation path.
type streamSink struct {
	bus *stream.Bus
}

// Emit implements trace.Sink.
func (s streamSink) Emit(ev trace.Event) {
	if !s.bus.Enabled() {
		return
	}
	switch ev.Type {
	case "span_end":
		data := map[string]any{
			"span":   ev.Span,
			"dur_ms": float64(ev.Duration) / float64(time.Millisecond),
		}
		if len(ev.Counters) > 0 {
			counters := make(map[string]any, len(ev.Counters))
			for k, v := range ev.Counters {
				counters[k] = v
			}
			data["counters"] = counters
		}
		s.bus.Publish(stream.TypeSpan, data)
	case "result":
		s.bus.Publish(stream.TypeResult, withScope(ev.Fields, "trial"))
	case "experiment":
		s.bus.Publish(stream.TypeResult, withScope(ev.Fields, "experiment"))
	case "snapshot":
		s.bus.Publish(stream.TypeDelta, ev.Fields)
	}
}

// withScope copies fields and adds the scope marker; the source map is
// shared with the other sinks of the run's trace, so it must not be
// mutated here.
func withScope(fields map[string]any, scope string) map[string]any {
	data := make(map[string]any, len(fields)+1)
	for k, v := range fields {
		data[k] = v
	}
	data["scope"] = scope
	return data
}
