package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynunlock"
	"dynunlock/internal/bench"
	"dynunlock/internal/core"
	"dynunlock/internal/flight"
	"dynunlock/internal/gf2"
	"dynunlock/internal/lock"
	"dynunlock/internal/sat"
	"dynunlock/internal/scan"
	"dynunlock/internal/trace"
)

// workload is one benchmark input set and the function that runs it.
type workload struct {
	name     string
	circuits []string
	scale    int
	keyBits  int
	// lanes is how many attacks (or daemon clients and workers) run at once.
	lanes int
	// committed, when set, is the directory of committed bundles whose
	// trial-0 secret and candidate set the seed-1 first round must match.
	committed string
	// workDir holds the daemon's data directory while it runs.
	workDir string
	run     func(w workload, seed int64, b budget, spans *spanLog) (*runOutput, error)
}

var table2Names = func() []string {
	names := make([]string, len(bench.Table2))
	for i, e := range bench.Table2 {
		names[i] = e.Name
	}
	return names
}()

var workloads = []workload{
	{name: "paper128", circuits: []string{"s5378", "s13207"}, scale: 1, keyBits: 128, lanes: 1,
		committed: "bench/bundles/paper128", run: runInProcess},
	{name: "scaled_sweep", circuits: table2Names, scale: 16, keyBits: 8, lanes: 2, run: runInProcess},
	{name: "daemon_jobs", circuits: table2Names, scale: 16, keyBits: 8, lanes: 2,
		workDir: ".bench_build/dynbench-work", run: runDaemon},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// budget bounds the timed phase. A round attacks every circuit once; a new
// round starts while less than seconds have passed, and the first always
// runs. rounds > 0 instead fixes the round count (tests).
type budget struct {
	seconds float64
	rounds  int
}

func (b budget) more(round int, elapsed time.Duration) bool {
	if b.rounds > 0 {
		return round < b.rounds
	}
	return round == 0 || elapsed.Seconds() < b.seconds
}

// setupReps is how many times set-up is repeated; setup_s is the median.
// Set-up takes milliseconds, so one scheduler hiccup or collection would
// otherwise dominate a single sample.
const setupReps = 101

// secretSeed derives the fabrication seed of a round's chips, as
// RunExperimentCtx derives trial secrets: with seed 1, round 0 programs the
// secrets of the committed paper128 bundles.
func secretSeed(seed int64, round int) int64 { return seed + int64(round)*7919 + 1 }

// target is one locked circuit of a workload.
type target struct {
	circuit string
	design  *lock.Design
}

// buildTargets builds and locks every circuit of the workload, returning
// the time spent in each of the two layers.
func buildTargets(w workload) (ts []*target, buildS, lockS float64, err error) {
	for _, name := range w.circuits {
		e, ok := bench.ByName(name)
		if !ok {
			return nil, 0, 0, fmt.Errorf("unknown circuit %q", name)
		}
		e = e.Scaled(w.scale)
		t0 := time.Now()
		n, err := e.Build(0)
		if err != nil {
			return nil, 0, 0, err
		}
		t1 := time.Now()
		d, err := lock.Lock(n, lock.Config{KeyBits: w.keyBits, Policy: scan.PerCycle})
		if err != nil {
			return nil, 0, 0, err
		}
		buildS += t1.Sub(t0).Seconds()
		lockS += time.Since(t1).Seconds()
		ts = append(ts, &target{circuit: name, design: d})
	}
	return ts, buildS, lockS, nil
}

// setupTargets times set-up (build, lock and fabricating the first round's
// chips) setupReps times and records the medians. A tiny warm-up attack
// runs first, so the heap has grown and lazy runtime set-up is done before
// anything is timed.
func setupTargets(w workload, seed int64, out *runOutput) ([]*target, error) {
	if err := warmUp(); err != nil {
		return nil, err
	}
	var ts []*target
	var setup, builds, locks []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		var buildS, lockS float64
		var err error
		ts, buildS, lockS, err = buildTargets(w)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			if _, err := dynunlock.Fabricate(t.design, secretSeed(seed, 0)); err != nil {
				return nil, err
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
		builds = append(builds, buildS)
		locks = append(locks, lockS)
	}
	out.set("setup_s", median(setup), len(setup))
	out.set("bench.build_s", median(builds), len(builds))
	out.set("lock.lock_s", median(locks), len(locks))
	return ts, nil
}

// warmUp runs one tiny attack.
func warmUp() error {
	w := workload{circuits: []string{"s5378"}, scale: 32, keyBits: 8}
	ts, _, _, err := buildTargets(w)
	if err != nil {
		return err
	}
	if rec := attack(w, ts[0], 1, 0, nil); rec.fail != "" {
		return fmt.Errorf("warm-up attack: %s", rec.fail)
	}
	return nil
}

// attackRec is one attack's outcome.
type attackRec struct {
	circuit    string
	round      int
	start, end time.Time
	seconds    float64
	res        *core.Result
	fail       string
}

// counts are the attack counters that depend only on the inputs.
type counts struct {
	dips, queries       int
	stats               sat.Stats
	encVars, encClauses uint64
}

func countsOf(res *core.Result) counts {
	return counts{res.Iterations, res.Queries, res.SolverStats, res.EncodeVars, res.EncodeClauses}
}

// attack fabricates the round's chip for t and breaks it with the CLI
// defaults (linear mode, AIG, native XOR, simplify). A non-nil trace
// observes it; nil runs the untouched path: no hooks and no trace sink.
func attack(w workload, t *target, seed int64, round int, at *attackTrace) attackRec {
	rec := attackRec{circuit: t.circuit, round: round}
	chip, err := dynunlock.Fabricate(t.design, secretSeed(seed, round))
	if err != nil {
		rec.fail = err.Error()
		return rec
	}
	var c core.Chip = chip
	ctx := context.Background()
	opts := core.Options{NativeXor: true, AIG: true, Simplify: true}
	if at != nil {
		c = at.attach(chip)
		opts.OnDIP = at.onDIP
		ctx = trace.With(ctx, at)
	}
	rec.start = time.Now()
	res, err := core.AttackCtx(ctx, c, opts)
	rec.end = time.Now()
	rec.seconds = rec.end.Sub(rec.start).Seconds()
	if err != nil {
		rec.fail = err.Error()
		return rec
	}
	rec.res = res
	rec.fail = check(res, chip.SecretSeed())
	if rec.fail == "" && w.committed != "" && seed == 1 && round == 0 {
		rec.fail = checkCommitted(filepath.Join(w.committed, t.circuit, flight.ResultFile), res, chip.SecretSeed())
	}
	return rec
}

// check is the correctness gate every attack passes: it ran to the end,
// converged, enumerated an exact candidate set that the probe sessions
// verified, and that set holds the chip's secret seed.
func check(res *core.Result, secret gf2.Vec) string {
	switch {
	case res.Stopped:
		return "stopped: " + string(res.StopReason)
	case !res.Converged:
		return "did not converge"
	case !res.Exact:
		return "candidate set is not exact"
	case !res.Verified:
		return "candidates failed verification"
	case !core.ContainsSeed(res.SeedCandidates, secret):
		return "secret seed not among the candidates"
	}
	return ""
}

// checkCommitted compares an attack with the committed bundle of the same
// circuit and secret: same secret, same candidate set. The path is relative
// to the repository root, which is the working directory or one of its two
// parents; a checkout without the bundle skips the check.
func checkCommitted(path string, res *core.Result, secret gf2.Vec) string {
	for _, p := range []string{path, filepath.Join("..", path), filepath.Join("..", "..", path)} {
		if _, err := os.Stat(p); err == nil {
			path = p
			break
		}
	}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return ""
	}
	if err != nil {
		return err.Error()
	}
	var doc flight.ResultDoc
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.Trials) == 0 {
		return fmt.Sprintf("%s: unreadable committed result", path)
	}
	want := doc.Trials[0]
	if want.SecretSeed != secret.String() {
		return fmt.Sprintf("secret differs from %s", path)
	}
	got := make([]string, len(res.SeedCandidates))
	for i, c := range res.SeedCandidates {
		got[i] = c.String()
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want.SeedCandidates) {
		return fmt.Sprintf("candidate set differs from %s", path)
	}
	return ""
}

// runInProcess runs paper128 and scaled_sweep: rounds of one attack per
// circuit, handed to bench.Sweep with the workload's lane count. A traced
// run follows each untraced round with a traced round on the same inputs,
// so the two can be compared attack by attack.
func runInProcess(w workload, seed int64, b budget, spans *spanLog) (*runOutput, error) {
	out := newRunOutput()
	ts, err := setupTargets(w, seed, out)
	if err != nil {
		return nil, err
	}
	traced := spans != nil
	lanes := min(w.lanes, len(ts))
	table := newLayerTable(lanes)
	samples := make(map[string][]float64)
	var rounds, tracedRounds []float64
	var attackSum float64
	var ref []counts
	var refTraces []*attackTrace

	var meter roundMeter
	start := time.Now()
	for round := 0; b.more(round, time.Since(start)); round++ {
		if err := meter.start(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		// The attack function reports failures in its record, never as an
		// error, so Sweep's error is always nil.
		recs, _ := bench.Sweep(lanes, ts, func(_ int, t *target) (attackRec, error) {
			return attack(w, t, seed, round, nil), nil
		})
		rounds = append(rounds, time.Since(t0).Seconds())
		if err := meter.stop(); err != nil {
			return nil, err
		}
		for _, r := range recs {
			out.attempt(w.name, r)
			samples[r.circuit] = append(samples[r.circuit], r.seconds)
			attackSum += r.seconds
		}
		if round == 0 {
			for _, r := range recs {
				if r.res != nil {
					ref = append(ref, countsOf(r.res))
				}
			}
		}
		if !traced {
			continue
		}
		traces := make([]*attackTrace, len(ts))
		if err := prepareRound(); err != nil {
			return nil, err
		}
		t0 = time.Now()
		trecs, _ := bench.Sweep(lanes, ts, func(i int, t *target) (attackRec, error) {
			traces[i] = newAttackTrace(spans, fmt.Sprintf("%s#%d", t.circuit, round))
			return attack(w, t, seed, round, traces[i]), nil
		})
		end := time.Now()
		tracedRounds = append(tracedRounds, end.Sub(t0).Seconds())
		for i, r := range trecs {
			if r.fail == "" && recs[i].res != nil && countsOf(r.res) != countsOf(recs[i].res) {
				r.fail = "traced attack searched differently from the untraced one"
			}
			out.attempt(w.name, r)
			if r.res != nil {
				traces[i].finish(r.start, r.end, r.res.SolverStats, table)
			}
		}
		table.wall += end.Sub(t0).Seconds()
		if round == 0 {
			refTraces = traces
		}
	}

	if !traced {
		n := len(rounds) * len(ts)
		out.set("attack_s_geomean", perCircuitGeomean(w.circuits, samples), n)
		out.set("throughput_per_s", float64(n)/sum(rounds), n)
		meter.set(out, n)
		return out, nil
	}

	var oracleSessions, oracleCycles, aigNodes uint64
	for _, at := range refTraces {
		oracleSessions += at.sessions
		oracleCycles += at.cycles
		aigNodes += at.counters["aig_nodes"]
	}
	setRefCounts(out, ref, oracleSessions, oracleCycles, aigNodes)
	out.set("oracle.session_s", table.perAttack(rowOracle), table.attacks)
	out.set("oracle.session_us_p50", median(table.sessionUS), len(table.sessionUS))
	out.set("sweep.efficiency", ratio(attackSum, float64(lanes)*sum(rounds)), len(rounds))
	out.set("trace.overhead_ratio", ratio(sum(tracedRounds), sum(rounds))-1, len(rounds))
	for _, name := range []string{"daemon.submit_ms_p50", "daemon.queue_s_p50", "daemon.run_s_p50",
		"daemon.job_overhead_s_p50", "daemon.rejected", "stream.events_per_job",
		"stream.terminal_lag_ms_p50", "stream.gaps", "flight.bundle_kb_per_job",
		"metrics.scrape_ms", "metrics.series"} {
		out.set(name, 0, 0) // no daemon in this workload
	}
	setLayerMetrics(out, table, &meter)
	return out, nil
}

// setRefCounts records the counters of the first round, one attack per
// circuit on the seed's first secrets: fixed inputs, so a fixed seed
// repeats them exactly and a faster implementation of the same search
// leaves them unchanged.
func setRefCounts(out *runOutput, ref []counts, sessions, cycles, aigNodes uint64) {
	var c counts
	for _, rc := range ref {
		c.dips += rc.dips
		c.queries += rc.queries
		c.encVars += rc.encVars
		c.encClauses += rc.encClauses
		addStats(&c.stats, rc.stats)
	}
	n := len(ref)
	out.set("oracle.sessions", float64(sessions), n)
	out.set("oracle.cycles", float64(cycles), n)
	out.set("encode.aig_nodes", float64(aigNodes), n)
	out.set("encode.vars", float64(c.encVars), n)
	out.set("encode.clauses", float64(c.encClauses), n)
	out.set("satattack.dips", float64(c.dips), n)
	out.set("satattack.queries", float64(c.queries), n)
	out.set("sat.conflicts", float64(c.stats.Conflicts), n)
	out.set("sat.decisions", float64(c.stats.Decisions), n)
	out.set("sat.propagations", float64(c.stats.Propagations), n)
	out.set("sat.xor_propagations", float64(c.stats.XorPropagations), n)
	out.set("sat.xor_conflicts", float64(c.stats.XorConflicts), n)
	out.set("sat.restarts", float64(c.stats.Restarts), n)
	out.set("sat.learnt", float64(c.stats.Learnt), n)
	out.set("sat.removed", float64(c.stats.Removed), n)
	out.set("sat.simplify_removed", float64(c.stats.SimplifyRemoved), n)
}

// setLayerMetrics records the traced rounds' layer times (mean self
// seconds per attack), solver rates, and the untraced rounds' runtime
// counters.
func setLayerMetrics(out *runOutput, t *layerTable, gc *roundMeter) {
	n := t.attacks
	for metric, row := range map[string]string{
		"core.unroll_s":            rowUnroll,
		"core.refine_s":            rowRefine,
		"core.verify_s":            rowVerify,
		"encode.initial_s":         rowEncode,
		"satattack.between_dips_s": rowBetween,
		"satattack.final_solve_s":  rowFinal,
		"sat.dip_solve_s":          rowDIPSolve,
		"sat.extract_s":            rowExtract,
		"sat.enumerate_s":          rowEnumerate,
	} {
		out.set(metric, t.perAttack(row), n)
	}
	satS := t.satSeconds()
	out.set("satattack.dip_loop_s", ratio(t.dipLoop, float64(n)), n)
	out.set("sat.props_per_s", ratio(float64(t.stats.Propagations), satS), n)
	out.set("sat.ns_per_conflict", ratio(satS*1e9, float64(t.stats.Conflicts)), n)
	out.set("sat.xor_share", ratio(float64(t.stats.XorPropagations), float64(t.stats.Propagations)), n)
	out.set("sat.time_share", ratio(satS/float64(t.lanes), t.wall), n)
	out.set("trace.other_share", ratio(t.other(), t.wall), n)
	out.set("go.gc_cycles", float64(gc.cycles), gc.rounds)
	out.set("go.gc_pause_ms", float64(gc.pauseNs)/1e6, gc.rounds)
	out.layers = t
}

// prepareRound starts a round from a collected heap returned to the OS and
// resets the kernel's peak-RSS mark, so the round's memory peak and GC work
// depend on its own attacks, not on the rounds before it.
func prepareRound() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set since the last reset.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// roundMeter measures the untraced rounds: each round's peak RSS, and the
// Go heap's allocation and collection counters summed over the rounds
// (the collections prepareRound forces between rounds are left out).
type roundMeter struct {
	rounds         int
	peaksMB        []float64
	alloc0, pause0 uint64
	num0           uint32
	alloc, pauseNs uint64
	cycles         uint32
}

func (m *roundMeter) start() error {
	if err := prepareRound(); err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc0, m.pause0, m.num0 = ms.TotalAlloc, ms.PauseTotalNs, ms.NumGC
	return nil
}

func (m *roundMeter) stop() error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.rounds++
	m.alloc += ms.TotalAlloc - m.alloc0
	m.pauseNs += ms.PauseTotalNs - m.pause0
	m.cycles += ms.NumGC - m.num0
	peak, err := peakRSSMB()
	m.peaksMB = append(m.peaksMB, peak)
	return err
}

// set records the memory metrics of an untraced run of n attacks.
func (m *roundMeter) set(out *runOutput, n int) {
	out.set("max_rss_mb", median(m.peaksMB), len(m.peaksMB))
	out.set("alloc_mb_per_attack", float64(m.alloc)/(1<<20)/float64(n), n)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func newRunOutput() *runOutput {
	return &runOutput{values: make(map[string]float64), samples: make(map[string]int)}
}

func (o *runOutput) set(name string, v float64, n int) {
	o.values[name] = v
	o.samples[name] = n
}

// attempt counts one attack, reporting a failure on standard error.
func (o *runOutput) attempt(workload string, r attackRec) {
	o.attempted++
	if r.fail != "" {
		o.failed++
		fmt.Fprintf(os.Stderr, "dynbench: %s: %s round %d: %s\n", workload, r.circuit, r.round, r.fail)
	}
}
