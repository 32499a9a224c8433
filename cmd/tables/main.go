// Command tables regenerates the paper's Tables I, II, and III end to end:
// it locks each benchmark, fabricates chips with secret seeds, runs the
// attack, and prints rows in the paper's format.
//
// Independent table conditions (benchmark × keyBits × policy) run on a
// worker pool sized by -parallel (default: GOMAXPROCS), so regeneration
// scales with cores; -parallel 1 reproduces the sequential reference run
// bit for bit.
//
// Paper-scale runs (-scale 1 -trials 10) take a while on the from-scratch
// CDCL solver; -scale 8 reproduces the qualitative shape in seconds.
//
// Usage:
//
//	tables -table 2 -scale 8 -trials 3
//	tables -table 3 -scale 8 -parallel 4 -record bundles
//	tables -table 1
//
// The record of a run is its bundles: -record writes one per table 2 or 3
// condition, and `runs report` and `runs compare` read them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"dynunlock"
	"dynunlock/internal/bench"
	"dynunlock/internal/flight"
	"dynunlock/internal/metrics"
	"dynunlock/internal/report"
	"dynunlock/internal/stream"
	"dynunlock/internal/trace"
)

func main() {
	var (
		table     = flag.Int("table", 2, "which table to regenerate: 1, 2, or 3")
		scale     = flag.Int("scale", 1, "divide circuit sizes by this factor")
		trials    = flag.Int("trials", 10, "secret seeds per benchmark (paper: 10)")
		kbits     = flag.Int("keybits", 128, "key width for Table II (paper: 128)")
		parallel  = flag.Int("parallel", 0, "worker pool size for table conditions (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget shared by the whole table sweep (0 = unlimited); completed conditions are still rendered")
		maxIters  = flag.Int("max-iters", 0, "bound each trial's DIP loop (0 = unlimited)")
		tracePath = flag.String("trace", "", "write a JSONL event trace to this path")
		recordDir = flag.String("record", "", "write one flight-recorder bundle per table condition under this directory (tables 2 and 3)")
		profile   = flag.Bool("profile", false, "capture CPU and heap pprof profiles into each condition's bundle (requires -record and -parallel 1)")
		v         = flag.Bool("v", false, "log per-trial progress to stderr")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address while running")
		progress    metrics.ProgressFlag
	)
	flag.Var(&progress, "progress", "print each condition's periodic metrics samples to stderr (-progress=json for stream-schema delta lines)")
	flag.Parse()
	var logw io.Writer
	if *v {
		logw = os.Stderr
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if logw != nil && workers > 1 {
		// Interleaved per-trial logs from concurrent conditions are useless.
		fmt.Fprintln(os.Stderr, "tables: -v with -parallel > 1 interleaves condition logs")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// The event bus backs /events; it only exists alongside a
	// metrics server, and an idle bus is one atomic load per publish point.
	var bus *stream.Bus
	if *metricsAddr != "" {
		bus = stream.NewBus()
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		ctx = trace.With(ctx, trace.NewJSONLSink(f))
	}
	ctx = trace.With(ctx, progress.Sink(os.Stderr))

	// Metrics are opt-in. The registry serves the sweep's own series;
	// bench.SweepCtx runs each table condition under a fresh registry of
	// its own, which that condition samples. Without a registry, a
	// recorded or streamed condition samples a private one of its own
	// (see dynunlock.RunExperimentCtx).
	var reg *metrics.Registry
	if *metricsAddr != "" || progress.On {
		reg = metrics.NewRegistry()
		reg.SetBuildInfo(buildInfoLabels()...)
		ctx = metrics.With(ctx, reg)
	}
	if *metricsAddr != "" {
		srv, err := metrics.ServeBus(*metricsAddr, reg, bus)
		if err != nil {
			fatalf("%v", err)
		}
		// Drain in-flight scrapes on exit so a Prometheus poll racing the
		// end of the run still gets its sample; SSE streams flush their
		// buffered events plus one terminal snapshot before closing.
		defer srv.Shutdown(2 * time.Second)
		fmt.Fprintf(os.Stderr, "tables: serving metrics on http://%s/metrics (live: /events)\n", srv.Addr())
	}
	if *recordDir != "" && *table == 1 {
		// Table 1 rows are one-shot attack demos on one chip each; they are
		// not recorded.
		fmt.Fprintln(os.Stderr, "tables: -record applies to tables 2 and 3 only; ignoring for table 1")
	}
	if *profile {
		// The runtime allows one CPU profile per process, so per-condition
		// capture needs the sequential pool.
		if *recordDir == "" {
			fatalf("-profile requires -record: profiles are stored inside the bundles")
		}
		if workers != 1 {
			fatalf("-profile requires -parallel 1 (one CPU profile per process)")
		}
	}
	var done int
	var err error
	switch *table {
	case 1:
		done, err = table1(ctx, *scale, workers, bus, logw)
	case 2:
		done, err = table2(ctx, *scale, *trials, *kbits, *maxIters, workers, *recordDir, *profile, bus, logw)
	case 3:
		done, err = table3(ctx, *scale, *trials, *maxIters, workers, *recordDir, *profile, bus, logw)
	default:
		fmt.Fprintf(os.Stderr, "tables: no table %d in the paper\n", *table)
		os.Exit(2)
	}
	stopped := err != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled))
	if err != nil && !stopped {
		fatalf("%v", err)
	}
	if stopped {
		fmt.Printf("\nstopped early (%v): %d condition(s) completed before the bound\n", err, done)
	}
	if *recordDir != "" {
		fmt.Fprintf(os.Stderr, "tables: recorded bundles under %s (attribution: runs explain <bundle>, report with trends: runs report %s)\n",
			*recordDir, *recordDir)
	}
}

// table1 reproduces the evolution table: each defense family attacked by
// the technique that broke it, demonstrated live on one mid-size circuit.
// Every row is a one-trial experiment (RunExperimentCtx, so its spans,
// DIPs and samples reach the trace, -progress and /events); seed base 0
// fabricates the chip from RNG seed 1. Under a static key the DynUnlock
// model is ScanSAT's: every mask is a fixed XOR of key bits, the same in
// every cycle.
func table1(ctx context.Context, scale, workers int, bus *stream.Bus, logw io.Writer) (int, error) {
	type cond struct {
		defense, obfType, attackName string
		policy                       dynunlock.Policy
	}
	conds := []cond{
		{"EFF [10]", "Static", "ScanSAT [14]", dynunlock.Static},
		{"DOS [12] (p=1)", "Dynamic", "DynUnlock (this work)", dynunlock.PerPattern},
		{"EFF-Dyn [13]", "Dynamic", "DynUnlock (this work)", dynunlock.PerCycle},
	}
	// Key width scales with the circuit so the mask rank can cover the key
	// space (the paper's regime: k <= 2n).
	circuitScale := max(scale, 8)
	keyBits := scaleKey(64, circuitScale)

	type row struct {
		c            cond
		done         bool
		broken       bool
		cands, iters int
	}
	rows, err := bench.SweepCtx(ctx, workers, conds, func(ctx context.Context, i int, c cond) (row, error) {
		res, err := dynunlock.RunExperimentCtx(ctx, dynunlock.ExperimentConfig{
			Benchmark:      "s5378",
			KeyBits:        keyBits,
			Policy:         c.policy,
			Scale:          circuitScale,
			EnumerateLimit: 256,
			Stream:         bus,
			Log:            logw,
		})
		if err != nil {
			return row{}, err
		}
		if len(res.Trials) == 0 { // the sweep's bound fired before the trial
			return row{}, ctx.Err()
		}
		t := res.Trials[0]
		return row{c: c, done: true, broken: t.Converged && t.Success, cands: len(t.SeedCandidates),
			iters: t.Iterations}, nil
	})

	tb := report.New("Table I: Evolution of scan locking (each defense attacked live)",
		"Defense", "Obfuscation type", "Attack", "Broken", "Candidates", "Iterations")
	done := 0
	for _, r := range rows {
		if !r.done { // never ran: the sweep's deadline fired first
			continue
		}
		tb.AddRow(r.c.defense, r.c.obfType, r.c.attackName, r.broken, r.cands, r.iters)
		done++
	}
	tb.Render(os.Stdout)
	return done, err
}

// runCondition runs one table condition. With recordDir set it records
// the condition as bundle name under recordDir: RunExperimentCtx wires
// the recorder into the run, and the bundle is closed here.
func runCondition(ctx context.Context, cfg dynunlock.ExperimentConfig, recordDir, name string, profile bool) (*dynunlock.ExperimentResult, error) {
	if recordDir == "" {
		return dynunlock.RunExperimentCtx(ctx, cfg)
	}
	rec, err := flight.Create(filepath.Join(recordDir, name))
	if err != nil {
		return nil, err
	}
	rec.Tool = "tables"
	cfg.Recorder = rec
	if profile {
		if err := rec.StartProfiles(); err != nil {
			rec.Close()
			return nil, err
		}
	}
	res, err := dynunlock.RunExperimentCtx(ctx, cfg)
	if cerr := rec.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return res, err
}

// table2 reproduces Table II: ten benchmarks, 128-bit dynamic keys.
func table2(ctx context.Context, scale, trials, keyBits, maxIters, workers int, recordDir string, profile bool, bus *stream.Bus, logw io.Writer) (int, error) {
	title := fmt.Sprintf("Table II: scan locked circuits with %d-bit dynamic keys (EFF-Dyn, %d trial(s)", keyBits, trials)
	if scale > 1 {
		title += fmt.Sprintf(", circuits and keys scaled 1/%d", scale)
	}
	title += ")"
	outs, err := bench.SweepCtx(ctx, workers, bench.Table2, func(ctx context.Context, i int, e bench.Entry) (*dynunlock.ExperimentResult, error) {
		cfg := dynunlock.ExperimentConfig{
			Benchmark:     e.Name,
			KeyBits:       scaleKey(keyBits, scale),
			Policy:        dynunlock.PerCycle,
			Scale:         scale,
			Trials:        trials,
			MaxIterations: maxIters,
			SeedBase:      100,
			Stream:        bus,
			Log:           logw,
		}
		return runCondition(ctx, cfg, recordDir, "table2_"+e.Name, profile)
	})

	tb := report.New(title,
		"Benchmark", "# Scan flops", "# Key bits", "# Seed candidates", "# Iterations", "Execution time (secs)", "Broken")
	done := 0
	for _, res := range outs {
		if res == nil { // never ran: the sweep's deadline fired first
			continue
		}
		sum := flight.Summarize(res.Trials)
		tb.AddRow(res.Entry.Name, res.Entry.FFs, res.Config.KeyBits,
			sum.AvgCandidates, sum.AvgIterations, sum.AvgSeconds, sum.Broken)
		done++
	}
	tb.Render(os.Stdout)
	return done, err
}

// table3 reproduces Table III: key-size sweep on the three largest
// benchmarks.
func table3(ctx context.Context, scale, trials, maxIters, workers int, recordDir string, profile bool, bus *stream.Bus, logw io.Writer) (int, error) {
	benches := []string{"s38584", "s38417", "s35932"}
	title := "Table III: larger keys on the three largest benchmarks"
	if scale > 1 {
		title += fmt.Sprintf(" (circuits scaled 1/%d)", scale)
	}
	type cond struct {
		kb   int
		name string
	}
	var conds []cond
	for kb := 144; kb <= 368; kb += 16 {
		for _, name := range benches {
			conds = append(conds, cond{kb, name})
		}
	}
	outs, err := bench.SweepCtx(ctx, workers, conds, func(ctx context.Context, i int, c cond) (*dynunlock.ExperimentResult, error) {
		cfg := dynunlock.ExperimentConfig{
			Benchmark:     c.name,
			KeyBits:       scaleKey(c.kb, scale),
			Policy:        dynunlock.PerCycle,
			Scale:         scale,
			Trials:        trials,
			MaxIterations: maxIters,
			SeedBase:      int64(c.kb),
			Stream:        bus,
			Log:           logw,
		}
		return runCondition(ctx, cfg, recordDir, fmt.Sprintf("table3_%s_k%d", c.name, c.kb), profile)
	})

	tb := report.New(title,
		"Key bits", "Benchmark", "# Seed candidates", "# Iterations", "Execution time (secs)", "Broken")
	done := 0
	for _, res := range outs {
		if res == nil { // never ran: the sweep's deadline fired first
			continue
		}
		sum := flight.Summarize(res.Trials)
		tb.AddRow(res.Config.KeyBits, res.Entry.Name, sum.AvgCandidates, sum.AvgIterations,
			sum.AvgSeconds, sum.Broken)
		done++
	}
	tb.Render(os.Stdout)
	return done, err
}

// scaleKey shrinks the key width along with the circuit, keeping the
// paper's k <= 2n regime so the seed stays exactly recoverable.
func scaleKey(kb, scale int) int {
	if scale <= 1 {
		return kb
	}
	out := kb / scale
	if out < 8 {
		out = 8
	}
	return out
}

// buildInfoLabels describes this binary for the dynunlock_build_info
// gauge: toolchain and bundle-format versions.
func buildInfoLabels() []string {
	return []string{
		"goversion", runtime.Version(),
		"format", strconv.Itoa(flight.FormatVersion),
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "tables: "+format+"\n", args...)
	os.Exit(1)
}
