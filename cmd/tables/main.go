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
//	tables -table 3 -scale 8 -parallel 4 -json table3.json
//	tables -table 1
package main

import (
	"context"
	"encoding/json"
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
	"dynunlock/internal/core"
	"dynunlock/internal/flight"
	"dynunlock/internal/metrics"
	"dynunlock/internal/oracle"
	"dynunlock/internal/report"
	"dynunlock/internal/scansat"
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
		analytic  = flag.Bool("analytic", false, "feed certified insight constraints back into the solver and short-circuit at full key rank")
		tracePath = flag.String("trace", "", "write a JSONL event trace to this path")
		recordDir = flag.String("record", "", "write one flight-recorder bundle per table condition under this directory (tables 2 and 3)")
		profile   = flag.Bool("profile", false, "capture CPU and heap pprof profiles into each condition's bundle (requires -record and -parallel 1)")
		jsonPath  = flag.String("json", "", "also write machine-readable results to this path")
		v         = flag.Bool("v", false, "log per-trial progress to stderr")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address while running")
		progress    metrics.ProgressFlag
	)
	flag.Var(&progress, "progress", "print periodic progress snapshots to stderr (-progress=500ms for cadence, -progress=json for stream-schema delta lines)")
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
	// The event bus backs /events and /live; it only exists alongside a
	// metrics server, and an idle bus is one atomic load per publish point.
	var bus *stream.Bus
	if *metricsAddr != "" {
		bus = stream.NewBus()
	}
	var sinks []trace.Sink
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		sinks = append(sinks, trace.NewJSONLSink(f))
	}
	sinks = append(sinks, trace.NewStreamSink(bus)) // nil bus drops to nil sink
	ctx = trace.With(ctx, trace.Multi(sinks...))

	// Metrics are opt-in; the sweep closures add a per-benchmark label so
	// every downstream series is tagged with its table condition. Recording
	// forces a registry so each bundle's metrics.json is populated.
	var reg *metrics.Registry
	if *metricsAddr != "" || progress.Interval > 0 || *recordDir != "" {
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
		fmt.Fprintf(os.Stderr, "tables: serving metrics on http://%s/metrics (live: /events, /live)\n", srv.Addr())
	}
	// With an event bus the periodic sampler always runs — it is the
	// feed's only "delta" source — writing to stderr only when -progress
	// asked for it.
	if progress.Interval > 0 || bus != nil {
		interval := progress.Interval
		if interval <= 0 {
			interval = metrics.DefaultProgressInterval
		}
		w := io.Writer(io.Discard)
		if progress.Interval > 0 {
			w = os.Stderr
		}
		p := metrics.NewProgress(reg, interval, w, trace.From(ctx))
		p.SetJSON(progress.JSON)
		p.AttachStream(bus)
		p.Start()
		defer p.Stop()
	}

	if *recordDir != "" && *table == 1 {
		// Table 1 rows are one-shot attack demos, not experiments; there is
		// no per-trial result to bundle.
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
	start := time.Now()
	var rows []condRow
	var err error
	switch *table {
	case 1:
		rows, err = table1(ctx, *scale, workers, logw)
	case 2:
		rows, err = table2(ctx, *scale, *trials, *kbits, *maxIters, workers, *recordDir, *profile, *analytic, reg, bus, logw)
	case 3:
		rows, err = table3(ctx, *scale, *trials, *maxIters, workers, *recordDir, *profile, *analytic, reg, bus, logw)
	default:
		fmt.Fprintf(os.Stderr, "tables: no table %d in the paper\n", *table)
		os.Exit(2)
	}
	stopped := err != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled))
	if err != nil && !stopped {
		fatalf("%v", err)
	}
	if stopped {
		fmt.Printf("\nstopped early (%v): %d condition(s) completed before the bound\n", err, len(rows))
	}
	if *recordDir != "" {
		fmt.Fprintf(os.Stderr, "tables: recorded bundles under %s (attribution: runs explain <bundle>, trends: runs trends %s)\n",
			*recordDir, *recordDir)
	}
	if *jsonPath != "" {
		rep := jsonReport{
			Table:          *table,
			Scale:          *scale,
			Trials:         *trials,
			Parallel:       workers,
			GOMAXPROCS:     runtime.GOMAXPROCS(0),
			NumCPU:         runtime.NumCPU(),
			ElapsedSeconds: time.Since(start).Seconds(),
			Conditions:     rows,
		}
		if err := writeJSON(*jsonPath, &rep); err != nil {
			fatalf("%v", err)
		}
	}
}

// condRow is one table condition in machine-readable form (the -json
// output; BENCH_*.json perf trajectories are populated from these).
type condRow struct {
	Table         string  `json:"table"`
	Benchmark     string  `json:"benchmark"`
	Suite         string  `json:"suite,omitempty"`
	Defense       string  `json:"defense,omitempty"`
	Attack        string  `json:"attack,omitempty"`
	KeyBits       int     `json:"keyBits"`
	Policy        string  `json:"policy"`
	ScanFlops     int     `json:"scanFlops,omitempty"`
	Trials        int     `json:"trials"`
	AvgCandidates float64 `json:"avgCandidates"`
	AvgIterations float64 `json:"avgIterations"`
	AvgQueries    float64 `json:"avgQueries,omitempty"`
	AvgSeconds    float64 `json:"avgSeconds"`
	Broken        bool    `json:"broken"`
	Stopped       bool    `json:"stopped,omitempty"`
	StopReason    string  `json:"stopReason,omitempty"`
	Conflicts     uint64  `json:"conflicts"`
	Decisions     uint64  `json:"decisions"`
	Propagations  uint64  `json:"propagations"`
	ElapsedSecs   float64 `json:"elapsedSeconds"`
}

type jsonReport struct {
	Table          int       `json:"table"`
	Scale          int       `json:"scale"`
	Trials         int       `json:"trials"`
	Parallel       int       `json:"parallel"`
	GOMAXPROCS     int       `json:"gomaxprocs"`
	NumCPU         int       `json:"numCPU"`
	ElapsedSeconds float64   `json:"elapsedSeconds"`
	Conditions     []condRow `json:"conditions"`
}

func writeJSON(path string, rep *jsonReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func policyName(p dynunlock.Policy) string {
	switch p {
	case dynunlock.Static:
		return "static"
	case dynunlock.PerPattern:
		return "per-pattern"
	default:
		return "per-cycle"
	}
}

// rowFromExperiment converts an experiment into the machine-readable row.
func rowFromExperiment(table string, res *dynunlock.ExperimentResult, elapsed time.Duration) condRow {
	var queries float64
	var dec, prop uint64
	for _, t := range res.Trials {
		queries += float64(t.Queries)
		dec += t.SolverStats.Decisions
		prop += t.SolverStats.Propagations
	}
	n := float64(len(res.Trials))
	return condRow{
		Table:         table,
		Benchmark:     res.Entry.Name,
		Suite:         res.Entry.Suite,
		KeyBits:       res.Config.KeyBits,
		Policy:        policyName(res.Config.Policy),
		ScanFlops:     res.Entry.FFs,
		Trials:        len(res.Trials),
		AvgCandidates: res.AvgCandidates(),
		AvgIterations: res.AvgIterations(),
		AvgQueries:    queries / n,
		AvgSeconds:    res.AvgSeconds(),
		Broken:        res.AllSucceeded(),
		Stopped:       res.Stopped,
		StopReason:    string(res.StopReason),
		Conflicts:     res.TotalConflicts(),
		Decisions:     dec,
		Propagations:  prop,
		ElapsedSecs:   elapsed.Seconds(),
	}
}

// table1 reproduces the evolution table: each defense family attacked by
// the technique that broke it, demonstrated live on one mid-size circuit.
func table1(ctx context.Context, scale, workers int, logw io.Writer) ([]condRow, error) {
	type cond struct {
		defense, obfType, attackName string
		policy                       dynunlock.Policy
		attack                       func(ctx context.Context, chip *oracle.Chip) (broken bool, cands, iters int, err error)
	}

	scanSAT := func(ctx context.Context, chip *oracle.Chip) (bool, int, int, error) {
		res, err := scansat.AttackCtx(ctx, chip, scansat.Options{EnumerateLimit: 256})
		if err != nil {
			return false, 0, 0, err
		}
		ok := false
		for _, k := range res.KeyCandidates {
			if k.Equal(chip.SecretSeed()) {
				ok = true
			}
		}
		return ok && res.Converged, len(res.KeyCandidates), res.Iterations, nil
	}
	dynUnlock := func(ctx context.Context, chip *oracle.Chip) (bool, int, int, error) {
		res, err := core.AttackCtx(ctx, chip, core.Options{EnumerateLimit: 256, Log: logw})
		if err != nil {
			return false, 0, 0, err
		}
		return res.Converged && core.ContainsSeed(res.SeedCandidates, chip.SecretSeed()),
			len(res.SeedCandidates), res.Iterations, nil
	}

	conds := []cond{
		{"EFF [10]", "Static", "ScanSAT [14]", dynunlock.Static, scanSAT},
		{"DOS [12] (p=1)", "Dynamic", "DynUnlock (this work)", dynunlock.PerPattern, dynUnlock},
		{"EFF-Dyn [13]", "Dynamic", "DynUnlock (this work)", dynunlock.PerCycle, dynUnlock},
	}

	type row struct {
		c            cond
		done         bool
		broken       bool
		cands, iters int
		keyBits      int
		elapsed      time.Duration
	}
	rows, err := bench.SweepCtx(ctx, workers, conds, func(ctx context.Context, i int, c cond) (row, error) {
		ctx = metrics.WithLabels(ctx, "benchmark", "s5378", "policy", policyName(c.policy))
		condStart := time.Now()
		// Key width scales with the circuit so the mask rank can cover the
		// key space (the paper's regime: k <= 2n).
		d, err := dynunlock.LockBenchmark("s5378", scaleKey(64, max(scale, 8)), c.policy, max(scale, 8))
		if err != nil {
			return row{}, err
		}
		chip, err := dynunlock.Fabricate(d, 1)
		if err != nil {
			return row{}, err
		}
		broken, cands, iters, err := c.attack(ctx, chip)
		if err != nil {
			return row{}, err
		}
		return row{c: c, done: true, broken: broken, cands: cands, iters: iters,
			keyBits: d.Config.KeyBits, elapsed: time.Since(condStart)}, nil
	})

	tb := report.New("Table I: Evolution of scan locking (each defense attacked live)",
		"Defense", "Obfuscation type", "Attack", "Broken", "Candidates", "Iterations")
	var out []condRow
	for _, r := range rows {
		if !r.done { // never ran: the sweep's deadline fired first
			continue
		}
		tb.AddRow(r.c.defense, r.c.obfType, r.c.attackName, r.broken, r.cands, r.iters)
		out = append(out, condRow{
			Table:         "I",
			Benchmark:     "s5378",
			Defense:       r.c.defense,
			Attack:        r.c.attackName,
			KeyBits:       r.keyBits,
			Policy:        policyName(r.c.policy),
			Trials:        1,
			AvgCandidates: float64(r.cands),
			AvgIterations: float64(r.iters),
			AvgSeconds:    r.elapsed.Seconds(),
			Broken:        r.broken,
			ElapsedSecs:   r.elapsed.Seconds(),
		})
	}
	tb.Render(os.Stdout)
	return out, err
}

// recordCondition opens a per-condition flight-recorder bundle under dir,
// attaches it to cfg, and layers the bundle's trace sink over any sink ctx
// already carries (so -trace and -record coexist). The returned finish
// func writes the terminal metrics snapshot and closes the bundle; call it
// after the experiment.
func recordCondition(ctx context.Context, dir, name string, profile bool, reg *metrics.Registry, cfg *dynunlock.ExperimentConfig) (context.Context, func() error, error) {
	rec, err := flight.Create(filepath.Join(dir, name))
	if err != nil {
		return ctx, nil, err
	}
	rec.Tool = "tables"
	cfg.Recorder = rec
	if profile {
		if err := rec.StartProfiles(); err != nil {
			rec.Close()
			return ctx, nil, err
		}
	}
	sinks := []trace.Sink{rec.TraceSink()}
	if parent := trace.From(ctx).Sink(); parent != nil {
		sinks = append(sinks, parent)
	}
	ctx = trace.With(ctx, trace.Multi(sinks...))
	finish := func() error {
		if err := rec.WriteMetrics(reg); err != nil {
			rec.Close()
			return err
		}
		return rec.Close()
	}
	return ctx, finish, nil
}

// table2 reproduces Table II: ten benchmarks, 128-bit dynamic keys.
func table2(ctx context.Context, scale, trials, keyBits, maxIters, workers int, recordDir string, profile, analytic bool, reg *metrics.Registry, bus *stream.Bus, logw io.Writer) ([]condRow, error) {
	title := fmt.Sprintf("Table II: scan locked circuits with %d-bit dynamic keys (EFF-Dyn, %d trial(s)", keyBits, trials)
	if scale > 1 {
		title += fmt.Sprintf(", circuits and keys scaled 1/%d", scale)
	}
	title += ")"
	type outcome struct {
		res     *dynunlock.ExperimentResult
		elapsed time.Duration
	}
	outs, err := bench.SweepCtx(ctx, workers, bench.Table2, func(ctx context.Context, i int, e bench.Entry) (outcome, error) {
		ctx = metrics.WithLabels(ctx, "benchmark", e.Name)
		condStart := time.Now()
		cfg := dynunlock.ExperimentConfig{
			Benchmark:     e.Name,
			KeyBits:       scaleKey(keyBits, scale),
			Policy:        dynunlock.PerCycle,
			Scale:         scale,
			Trials:        trials,
			MaxIterations: maxIters,
			SeedBase:      100,
			Analytic:      analytic,
			Stream:        bus,
			Log:           logw,
		}
		var finish func() error
		if recordDir != "" {
			var err error
			ctx, finish, err = recordCondition(ctx, recordDir, "table2_"+e.Name, profile, reg, &cfg)
			if err != nil {
				return outcome{}, err
			}
		}
		res, err := dynunlock.RunExperimentCtx(ctx, cfg)
		if finish != nil {
			if ferr := finish(); ferr != nil && err == nil {
				err = ferr
			}
		}
		if err != nil {
			return outcome{}, err
		}
		return outcome{res: res, elapsed: time.Since(condStart)}, nil
	})

	tb := report.New(title,
		"Benchmark", "# Scan flops", "# Key bits", "# Seed candidates", "# Iterations", "Execution time (secs)", "Broken")
	var rows []condRow
	for _, o := range outs {
		res := o.res
		if res == nil { // never ran: the sweep's deadline fired first
			continue
		}
		tb.AddRow(res.Entry.Name, res.Entry.FFs, res.Config.KeyBits,
			res.AvgCandidates(), res.AvgIterations(), res.AvgSeconds(), res.AllSucceeded())
		rows = append(rows, rowFromExperiment("II", res, o.elapsed))
	}
	tb.Render(os.Stdout)
	return rows, err
}

// table3 reproduces Table III: key-size sweep on the three largest
// benchmarks.
func table3(ctx context.Context, scale, trials, maxIters, workers int, recordDir string, profile, analytic bool, reg *metrics.Registry, bus *stream.Bus, logw io.Writer) ([]condRow, error) {
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
	type outcome struct {
		res     *dynunlock.ExperimentResult
		elapsed time.Duration
	}
	outs, err := bench.SweepCtx(ctx, workers, conds, func(ctx context.Context, i int, c cond) (outcome, error) {
		ctx = metrics.WithLabels(ctx, "benchmark", c.name)
		condStart := time.Now()
		cfg := dynunlock.ExperimentConfig{
			Benchmark:     c.name,
			KeyBits:       scaleKey(c.kb, scale),
			Policy:        dynunlock.PerCycle,
			Scale:         scale,
			Trials:        trials,
			MaxIterations: maxIters,
			SeedBase:      int64(c.kb),
			Analytic:      analytic,
			Stream:        bus,
			Log:           logw,
		}
		var finish func() error
		if recordDir != "" {
			var err error
			ctx, finish, err = recordCondition(ctx, recordDir, fmt.Sprintf("table3_%s_k%d", c.name, c.kb), profile, reg, &cfg)
			if err != nil {
				return outcome{}, err
			}
		}
		res, err := dynunlock.RunExperimentCtx(ctx, cfg)
		if finish != nil {
			if ferr := finish(); ferr != nil && err == nil {
				err = ferr
			}
		}
		if err != nil {
			return outcome{}, err
		}
		return outcome{res: res, elapsed: time.Since(condStart)}, nil
	})

	tb := report.New(title,
		"Key bits", "Benchmark", "# Seed candidates", "# Iterations", "Execution time (secs)", "Broken")
	var rows []condRow
	for _, o := range outs {
		res := o.res
		if res == nil { // never ran: the sweep's deadline fired first
			continue
		}
		tb.AddRow(res.Config.KeyBits, res.Entry.Name, res.AvgCandidates(), res.AvgIterations(),
			res.AvgSeconds(), res.AllSucceeded())
		rows = append(rows, rowFromExperiment("III", res, o.elapsed))
	}
	tb.Render(os.Stdout)
	return rows, err
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
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
