// Command dynunlock locks a benchmark circuit with dynamic scan locking,
// fabricates a chip with secret keys, and runs the DynUnlock attack,
// printing a Table-II-style result row.
//
// Usage:
//
//	dynunlock -bench s5378 -keybits 128 -trials 10
//	dynunlock -bench s35932 -keybits 240 -scale 8 -policy percycle -v
//	dynunlock -bench s5378 -keybits 64 -timeout 1s -trace run.jsonl
//
// -timeout bounds the whole experiment; when it fires, the run stops at the
// next solver check point and the partial result is reported (exit 0) with
// its stop reason. -trace streams span/progress/result events as JSON lines
// (see internal/trace.JSONLSink for the schema).
//
// -metrics-addr serves live Prometheus metrics at /metrics, pprof profiles
// at /debug/pprof/, a live SSE event feed at /events (deltas, one event
// per DIP, stage spans, results — see internal/stream) while the attack
// runs; `runs watch ADDR` follows the feed from a terminal.
// The run samples its own metrics every two seconds as "snapshot" trace
// events (in the -trace file and a -record bundle's trace.jsonl, and as
// "delta" events on /events); -progress prints each sample to stderr as
// one status line, and -progress=json as one stream-schema delta event per
// line. Neither flag changes attack behavior: with both unset the run is
// bit-identical to an uninstrumented one.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dynunlock"
	"dynunlock/internal/anatomy"
	"dynunlock/internal/bench"
	"dynunlock/internal/flight"
	"dynunlock/internal/metrics"
	"dynunlock/internal/report"
	"dynunlock/internal/stream"
	"dynunlock/internal/trace"
)

func main() {
	var (
		benchName = flag.String("bench", "s5378", "benchmark name (s5378 s13207 s15850 s38584 s38417 s35932 b20 b21 b22 b17, or affine for the linear reference core)")
		keyBits   = flag.Int("keybits", 128, "key register width")
		policyStr = flag.String("policy", "percycle", "key update policy: static | perpattern | percycle")
		period    = flag.Int("period", 1, "pattern period for -policy perpattern")
		scale     = flag.Int("scale", 1, "divide circuit size by this factor for quick runs")
		trials    = flag.Int("trials", 1, "number of secret seeds to attack (paper: 10)")
		mode      = flag.String("mode", "linear", "attack formulation: linear | direct")
		limit     = flag.Int("limit", 256, "seed candidate enumeration limit")
		seedBase  = flag.Int64("seed", 1, "base RNG seed for the chip secrets")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget for the whole experiment (0 = unlimited)")
		maxIters  = flag.Int("max-iters", 0, "bound each trial's DIP loop (0 = unlimited)")
		tracePath = flag.String("trace", "", "write a JSONL event trace to this path")
		recordDir = flag.String("record", "", "write a flight-recorder bundle (manifest, oracle/DIP transcripts, trace with metrics samples, result) to this directory")
		profile   = flag.Bool("profile", false, "capture CPU and heap pprof profiles into the -record bundle (requires -record)")
		verbose   = flag.Bool("v", false, "log attack progress")
		list      = flag.Bool("list", false, "list available benchmarks and exit")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address while running")
		progress    metrics.ProgressFlag
	)
	flag.Var(&progress, "progress", "print the run's periodic metrics samples to stderr (-progress=json for stream-schema delta lines)")
	flag.Parse()

	if *list {
		tb := report.New("Available benchmarks (paper Table II + affine reference)", "Name", "Suite", "# Scan flops", "PIs", "POs")
		for _, e := range append(append([]bench.Entry(nil), bench.Table2...), bench.AffineRef) {
			tb.AddRow(e.Name, e.Suite, e.FFs, e.PIs, e.POs)
		}
		tb.Render(os.Stdout)
		return
	}

	cfg := dynunlock.ExperimentConfig{
		Benchmark:      *benchName,
		KeyBits:        *keyBits,
		Period:         *period,
		Scale:          *scale,
		Trials:         *trials,
		EnumerateLimit: *limit,
		MaxIterations:  *maxIters,
		SeedBase:       *seedBase,
	}
	switch strings.ToLower(*policyStr) {
	case "static":
		cfg.Policy = dynunlock.Static
	case "perpattern":
		cfg.Policy = dynunlock.PerPattern
	case "percycle":
		cfg.Policy = dynunlock.PerCycle
	default:
		fatalf("unknown policy %q", *policyStr)
	}
	switch strings.ToLower(*mode) {
	case "linear":
		cfg.Mode = dynunlock.ModeLinear
	case "direct":
		cfg.Mode = dynunlock.ModeDirect
	default:
		fatalf("unknown mode %q", *mode)
	}
	if *verbose {
		cfg.Log = os.Stderr
	} else {
		cfg.Log = io.Discard
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	collector := trace.NewCollector()
	ctx = trace.With(ctx, collector)
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		ctx = trace.With(ctx, trace.NewJSONLSink(f))
	}
	ctx = trace.With(ctx, progress.Sink(os.Stderr))
	var rec *flight.Recorder
	if *recordDir != "" {
		var err error
		rec, err = flight.Create(*recordDir)
		if err != nil {
			fatalf("%v", err)
		}
		rec.Tool = "dynunlock"
		cfg.Recorder = rec
		if *profile {
			if err := rec.StartProfiles(); err != nil {
				fatalf("%v", err)
			}
		}
	} else if *profile {
		fatalf("-profile requires -record: profiles are stored inside the bundle")
	}
	// The event bus backs /events; it only exists alongside a
	// metrics server, and an idle bus (no subscribers) costs one atomic
	// load per publish point.
	var bus *stream.Bus
	if *metricsAddr != "" {
		bus = stream.NewBus()
		cfg.Stream = bus
	}

	// Metrics are opt-in: without -metrics-addr or -progress no registry
	// is installed here. A recorded or streamed run samples a private one
	// of its own (see dynunlock.RunExperimentCtx); a run with none of the
	// three takes the uninstrumented path.
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
		fmt.Fprintf(os.Stderr, "dynunlock: serving metrics on http://%s/metrics (live: /events)\n", srv.Addr())
	}
	start := time.Now()
	res, err := dynunlock.RunExperimentCtx(ctx, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	wall := time.Since(start).Seconds()
	if rec != nil {
		if err := rec.Close(); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "dynunlock: recorded bundle to %s (attribution: runs explain %s)\n", rec.Dir(), rec.Dir())
	}
	sum := flight.Summarize(res.Trials)
	tb := report.New(
		fmt.Sprintf("DynUnlock on %s (%d scan flops, %d-bit key, %v, %d trial(s), %s mode)",
			res.Entry.Name, res.Entry.FFs, cfg.KeyBits, cfg.Policy, sum.Trials, cfg.Mode),
		"Benchmark", "# Scan flops", "# Key bits", "# Seed candidates", "# Iterations", "Execution time (secs)", "Broken")
	tb.AddRow(res.Entry.Name, res.Entry.FFs, cfg.KeyBits,
		sum.AvgCandidates, sum.AvgIterations, sum.AvgSeconds, sum.Broken)
	tb.Render(os.Stdout)
	if spans := collector.Spans(); len(spans) > 0 {
		fmt.Println()
		report.StageTable("Per-stage timing (summed over trials; rows sum to the wall time)",
			anatomy.StageSplit(spans, wall)).Render(os.Stdout)
	}
	if res.Stopped {
		// A bounded run is a successful partial run, not a failure: report
		// the reason and exit 0 so scripted short runs (CI) can assert on
		// the partial output.
		fmt.Printf("\nstopped early: %s (%d/%d trial(s) ran)\n",
			res.StopReason, sum.Trials, cfg.Trials)
		return
	}
	if !sum.Broken {
		os.Exit(1)
	}
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
	fmt.Fprintf(os.Stderr, "dynunlock: "+format+"\n", args...)
	os.Exit(2)
}
