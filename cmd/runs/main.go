// Command runs inspects, validates, replays, compares, and reports on
// flight-recorder bundles (see internal/flight).
//
// Usage:
//
//	runs show <bundle>                  print a bundle summary and stage table
//	runs validate <bundle>              check the bundle files and manifest schema
//	runs replay <bundle>                re-run the attack from the transcript
//	runs explain [-json] [-top N] <bundle>
//	                                    per-stage and per-DIP attribution report
//	runs diff <bundleA> <bundleB>       cross-run comparison of two bundles
//	runs compare <bundleA> <bundleB>    attribute a perf change: which stage and
//	                                    solver series regressed between two runs
//	runs bench [-out FILE] <bundle>...  append normalized rows to BENCH_attack.json
//	runs baseline [-bench FILE] <bundle>  compare a bundle to its ledger baseline row
//	runs report [-o FILE] [-bench FILE] [-title T] <bundle-or-dir>...
//	                                    render bundles into a self-contained HTML report
//	runs trends [-o FILE] [-bench FILE] [-title T] <bundle-or-dir>...
//	                                    render a cross-run trend report (SVG charts)
//	runs watch [-job ID] <addr>         follow a live run's /events feed in the terminal
//
// explain is the attribution tool (see internal/anatomy): wall time split
// across the Fig. 3 stages (rows sum exactly to the recorded wall time),
// solver counter totals (exactly the sum of result.json's per-trial
// snapshots), the hardest DIP iterations by difficulty score, and — on
// bundles recorded with the live capture — the LBD distribution and
// restart telemetry. compare runs the same attribution over two bundles
// and names the stage and solver series that regressed, instead of only
// reporting that something differs.
//
// Exit codes are uniform across subcommands so scripts and CI can tell the
// failure classes apart:
//
//	0  success (validate: bundle ok; replay/diff/baseline: results match)
//	1  mismatch — replay diverged, diff found differing deterministic
//	   columns, or the baseline comparison failed
//	2  usage error
//	3  corrupt or unreadable bundle/ledger (malformed JSON, failed schema
//	   validation, missing files, a bundle format older than 5)
//
// replay is the post-mortem tool: it rebuilds the locked design from the
// manifest, serves every oracle query from oracle.jsonl (no chip
// simulation), and compares the re-derived result to result.json. For
// sequentially recorded bundles the comparison is exact — any diff means
// the attack code changed behavior since the recording.
//
// report renders one or more bundles (a directory of bundles expands to its
// sorted children) into one static HTML file with inline-SVG charts: the
// insight rank/seed-space curve, solve-time and oracle-cycle timelines,
// solver hotspots, and a cross-run comparison table. The output is
// deterministic: the same bundles render byte-identically.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dynunlock/internal/flight"
	"dynunlock/internal/report"
	"dynunlock/internal/trace"
)

// Exit codes (documented in the package comment; asserted in main_test.go).
const (
	exitOK       = 0
	exitMismatch = 1
	exitUsage    = 2
	exitCorrupt  = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches a subcommand and returns the process exit code; main is a
// thin os.Exit wrapper so tests can drive the CLI in-process.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		return usage(stderr)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "show":
		return cmdShow(rest, stdout, stderr)
	case "validate":
		return cmdValidate(rest, stdout, stderr)
	case "replay":
		return cmdReplay(rest, stdout, stderr)
	case "explain":
		return cmdExplain(rest, stdout, stderr)
	case "diff":
		return cmdDiff(rest, stdout, stderr)
	case "compare":
		return cmdCompare(rest, stdout, stderr)
	case "trends":
		return cmdTrends(rest, stdout, stderr)
	case "bench":
		return cmdBench(rest, stdout, stderr)
	case "baseline":
		return cmdBaseline(rest, stdout, stderr)
	case "report":
		return cmdReport(rest, stdout, stderr)
	case "watch":
		return cmdWatch(rest, stdout, stderr)
	}
	return usage(stderr)
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage: runs <command> [args]

  show <bundle>                   print a bundle summary
  validate <bundle>               validate bundle files and manifest schema
  replay <bundle>                 replay the attack offline
  explain [-json] [-top N] <bundle>
                                  per-stage and per-DIP attribution report
  diff <bundleA> <bundleB>        compare two bundles
  compare <bundleA> <bundleB>     attribute a perf change between two bundles
  bench [-out FILE] <bundle>...   append normalized rows to a benchmark ledger
  baseline [-bench FILE] <bundle> compare a bundle to its ledger baseline
  report [-o FILE] [-bench FILE] [-title T] <bundle-or-dir>...
                                  render bundles into one self-contained HTML report
  trends [-o FILE] [-bench FILE] [-title T] <bundle-or-dir>...
                                  render a cross-run trend report (SVG charts)
  watch [-job ID] <addr>          follow a live run's /events feed in the terminal
                                  (-job filters to one dynunlockd job and exits at its terminal state)

exit codes: 0 ok/match · 1 mismatch (replay divergence, diff or baseline
mismatch) · 2 usage · 3 corrupt or unreadable bundle/ledger/event stream`)
	return exitUsage
}

// open loads a bundle; a load failure prints the fault and reports it as
// corrupt/unreadable (exit 3 at the caller).
func open(dir string, stderr io.Writer) (*flight.Bundle, bool) {
	b, err := flight.Open(dir)
	if err != nil {
		fmt.Fprintf(stderr, "runs: %v\n", err)
		return nil, false
	}
	return b, true
}

func cmdShow(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		return usage(stderr)
	}
	b, ok := open(args[0], stderr)
	if !ok {
		return exitCorrupt
	}
	m := &b.Manifest
	fmt.Fprintf(stdout, "bundle      %s\n", b.Dir)
	fmt.Fprintf(stdout, "recorded    %s by %s (%s %s/%s, %d CPU, host %s)\n",
		m.CreatedAt, orDash(m.Tool), m.Fingerprint.GoVersion,
		m.Fingerprint.GOOS, m.Fingerprint.GOARCH, m.Fingerprint.NumCPU, orDash(m.Fingerprint.Host))
	if m.Fingerprint.GitCommit != "" {
		fmt.Fprintf(stdout, "commit      %s\n", m.Fingerprint.GitCommit)
	}
	fmt.Fprintf(stdout, "experiment  %s scale=%d keybits=%d policy=%s mode=%s seed=%d analytic=%v\n",
		m.Benchmark, m.Scale, m.Lock.KeyBits, m.Lock.Policy, m.Mode, m.SeedBase, m.Analytic)
	if len(m.Profiles) > 0 {
		fmt.Fprintf(stdout, "profiles    %v\n", m.Profiles)
	}
	fmt.Fprintf(stdout, "transcript  %d sessions, %d DIP iterations\n\n", len(b.Sessions), len(b.DIPs))

	tb := report.New(fmt.Sprintf("Trials (%d recorded)", len(b.Result.Trials)),
		"Trial", "Candidates", "Iterations", "Queries", "Seconds", "Conflicts", "Enc vars", "Enc clauses", "Success")
	for _, t := range b.Result.Trials {
		tb.AddRow(t.Trial, len(t.SeedCandidates), t.Iterations, t.Queries,
			t.Seconds, t.Solver.Conflicts, t.EncodeVars, t.EncodeClauses, t.Success)
	}
	tb.Render(stdout)
	if b.Result.Stopped {
		fmt.Fprintf(stdout, "\nstopped early: %s\n", b.Result.StopReason)
	}
	if spans, err := flight.ReadTrace(b.Dir); err == nil && len(spans) > 0 {
		fmt.Fprintln(stdout)
		report.StageTable("Per-stage timing (summed over trials)", spans).Render(stdout)
	}
	return exitOK
}

func cmdValidate(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		return usage(stderr)
	}
	b, ok := open(args[0], stderr) // Open validates the manifest and parses every line
	if !ok {
		return exitCorrupt
	}
	if _, err := b.Design(); err != nil {
		fmt.Fprintf(stderr, "runs: %v\n", err)
		return exitCorrupt
	}
	if _, err := flight.ReadTrace(b.Dir); err != nil {
		fmt.Fprintf(stderr, "runs: %v\n", err)
		return exitCorrupt
	}
	fmt.Fprintf(stdout, "runs: %s ok: %d trial(s), %d session(s), %d DIP(s)\n",
		args[0], len(b.Result.Trials), len(b.Sessions), len(b.DIPs))
	return exitOK
}

func cmdReplay(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		return usage(stderr)
	}
	b, ok := open(args[0], stderr)
	if !ok {
		return exitCorrupt
	}
	start := time.Now()
	replayed, err := b.Replay(context.Background())
	if err != nil {
		fmt.Fprintf(stderr, "runs: %v\n", err)
		return exitCorrupt
	}
	diffs := flight.Compare(&b.Result, replayed)
	tb := report.New(fmt.Sprintf("Replay of %s (%d trial(s), %.2fs offline)",
		b.Dir, len(replayed.Trials), time.Since(start).Seconds()),
		"Trial", "Candidates", "Iterations", "Queries", "Match")
	for i, t := range replayed.Trials {
		match := i < len(b.Result.Trials) &&
			len(flight.Compare(
				&flight.ResultDoc{Trials: b.Result.Trials[i : i+1]},
				&flight.ResultDoc{Trials: replayed.Trials[i : i+1]})) == 0
		tb.AddRow(t.Trial, len(t.SeedCandidates), t.Iterations, t.Queries, match)
	}
	tb.Render(stdout)
	if len(diffs) > 0 {
		fmt.Fprintln(stdout, "\nreplay diverged from the recording:")
		for _, d := range diffs {
			fmt.Fprintf(stdout, "  %s\n", d)
		}
		return exitMismatch
	}
	fmt.Fprintln(stdout, "\nreplay is bit-identical to the recording")
	return exitOK
}

// cmdDiff compares two bundles. The deterministic outcome columns (trials,
// iterations, queries, candidates, broken) decide the exit code: identical
// outcomes exit 0, differing ones exit 1; timing and solver-effort columns
// are report-only.
func cmdDiff(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		return usage(stderr)
	}
	a, okA := open(args[0], stderr)
	if !okA {
		return exitCorrupt
	}
	b, okB := open(args[1], stderr)
	if !okB {
		return exitCorrupt
	}
	ra, rb := flight.BenchRowFrom(a), flight.BenchRowFrom(b)

	tb := report.New(fmt.Sprintf("Bundle diff: %s vs %s", args[0], args[1]),
		"Metric", "A", "B", "Delta")
	addNum := func(name string, va, vb float64) {
		tb.AddRow(name, va, vb, vb-va)
	}
	tb.AddRow("benchmark", ra.Benchmark, rb.Benchmark, "")
	tb.AddRow("config", ra.ConfigString(), rb.ConfigString(), "")
	tb.AddRow("recorded", ra.RecordedAt, rb.RecordedAt, "")
	tb.AddRow("commit", orDash(ra.GitCommit), orDash(rb.GitCommit), "")
	addNum("trials", float64(ra.Trials), float64(rb.Trials))
	addNum("avg iterations", ra.AvgIterations, rb.AvgIterations)
	addNum("avg queries", ra.AvgQueries, rb.AvgQueries)
	addNum("avg candidates", ra.AvgCandidates, rb.AvgCandidates)
	addNum("avg seconds", ra.AvgSeconds, rb.AvgSeconds)
	addNum("total conflicts", float64(ra.TotalConflicts), float64(rb.TotalConflicts))
	addNum("total propagations", float64(ra.TotalPropagations), float64(rb.TotalPropagations))
	tb.AddRow("broken", ra.Broken, rb.Broken, "")
	tb.Render(stdout)

	sa, errA := flight.ReadTrace(a.Dir)
	sb, errB := flight.ReadTrace(b.Dir)
	if errA == nil && errB == nil && (len(sa) > 0 || len(sb) > 0) {
		fmt.Fprintln(stdout)
		stageDiffTable(sa, sb).Render(stdout)
	}
	same := ra.Benchmark == rb.Benchmark &&
		ra.Trials == rb.Trials &&
		ra.AvgIterations == rb.AvgIterations &&
		ra.AvgQueries == rb.AvgQueries &&
		ra.AvgCandidates == rb.AvgCandidates &&
		ra.Broken == rb.Broken
	if !same {
		fmt.Fprintln(stdout, "\nbundles differ on deterministic columns")
		return exitMismatch
	}
	fmt.Fprintln(stdout, "\nbundles match on deterministic columns")
	return exitOK
}

// stageDiffTable sums span durations per stage for each bundle and lines
// them up in report.FigStages order (unknown stages follow, in order of
// first appearance).
func stageDiffTable(a, b []trace.SpanRecord) *report.Table {
	sum := func(spans []trace.SpanRecord) map[string]time.Duration {
		m := make(map[string]time.Duration)
		for _, s := range spans {
			m[s.Name] += s.Duration
		}
		return m
	}
	ma, mb := sum(a), sum(b)
	seen := map[string]bool{}
	var order []string
	for _, name := range report.FigStages {
		if ma[name] > 0 || mb[name] > 0 {
			order = append(order, name)
			seen[name] = true
		}
	}
	for _, spans := range [][]trace.SpanRecord{a, b} {
		for _, s := range spans {
			if !seen[s.Name] {
				order = append(order, s.Name)
				seen[s.Name] = true
			}
		}
	}
	tb := report.New("Per-stage timing diff (ms, summed over trials)",
		"Stage", "A", "B", "Delta")
	for _, name := range order {
		va := float64(ma[name]) / float64(time.Millisecond)
		vb := float64(mb[name]) / float64(time.Millisecond)
		tb.AddRow(name, va, vb, vb-va)
	}
	return tb
}

func cmdBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "BENCH_attack.json", "benchmark ledger to append to")
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if fs.NArg() < 1 {
		return usage(stderr)
	}
	ledger, err := flight.ReadBenchFile(*out)
	if err != nil {
		fmt.Fprintf(stderr, "runs: %v\n", err)
		return exitCorrupt
	}
	for _, dir := range fs.Args() {
		b, ok := open(dir, stderr)
		if !ok {
			return exitCorrupt
		}
		row := flight.BenchRowFrom(b)
		ledger.Rows = append(ledger.Rows, row)
		fmt.Fprintf(stdout, "runs: %s: %s %s avg_iters=%.1f avg_secs=%.3f conflicts=%d broken=%v\n",
			*out, row.Benchmark, row.ConfigString(), row.AvgIterations, row.AvgSeconds,
			row.TotalConflicts, row.Broken)
	}
	if err := ledger.Write(*out); err != nil {
		fmt.Fprintf(stderr, "runs: %v\n", err)
		return exitCorrupt
	}
	return exitOK
}

func cmdBaseline(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("baseline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ledgerPath := fs.String("bench", "BENCH_attack.json", "benchmark ledger holding the baseline rows")
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if fs.NArg() != 1 {
		return usage(stderr)
	}
	ledger, err := flight.ReadBenchFile(*ledgerPath)
	if err != nil {
		fmt.Fprintf(stderr, "runs: %v\n", err)
		return exitCorrupt
	}
	b, ok := open(fs.Arg(0), stderr)
	if !ok {
		return exitCorrupt
	}
	row := flight.BenchRowFrom(b)
	base, found := ledger.FindRow(row)
	if !found {
		fmt.Fprintf(stderr, "runs: no baseline row in %s for %s %s\n", *ledgerPath, row.Benchmark, row.ConfigString())
		return exitMismatch
	}
	tb := report.New(fmt.Sprintf("Baseline comparison: %s %s", row.Benchmark, row.ConfigString()),
		"Metric", "Baseline", "Current", "Delta")
	num := func(name string, vb, vc float64) { tb.AddRow(name, vb, vc, vc-vb) }
	num("trials", float64(base.Trials), float64(row.Trials))
	num("avg iterations", base.AvgIterations, row.AvgIterations)
	num("avg queries", base.AvgQueries, row.AvgQueries)
	num("avg candidates", base.AvgCandidates, row.AvgCandidates)
	num("avg seconds", base.AvgSeconds, row.AvgSeconds)
	num("total conflicts", float64(base.TotalConflicts), float64(row.TotalConflicts))
	tb.AddRow("broken", base.Broken, row.Broken, "")
	tb.Render(stdout)
	// The deterministic columns must match the baseline exactly; timing and
	// solver-effort columns are report-only (they vary across hosts). On a
	// mismatch, every regressed series is named with its movement so the
	// failure is directly attributable (`runs compare` digs further into
	// which attack stage moved).
	var regressed []string
	mism := func(name string, vb, vc float64) {
		if vb != vc {
			regressed = append(regressed, fmt.Sprintf("%s: baseline %g, current %g (%+g)", name, vb, vc, vc-vb))
		}
	}
	mism("trials", float64(base.Trials), float64(row.Trials))
	mism("avg iterations", base.AvgIterations, row.AvgIterations)
	mism("avg queries", base.AvgQueries, row.AvgQueries)
	mism("avg candidates", base.AvgCandidates, row.AvgCandidates)
	if base.Broken != row.Broken {
		regressed = append(regressed, fmt.Sprintf("broken: baseline %v, current %v", base.Broken, row.Broken))
	}
	if len(regressed) > 0 {
		fmt.Fprintf(stdout, "\nbaseline mismatch: %d deterministic series moved\n", len(regressed))
		for _, s := range regressed {
			fmt.Fprintf(stdout, "  %s\n", s)
		}
		return exitMismatch
	}
	fmt.Fprintln(stdout, "\nbaseline match on deterministic columns")
	return exitOK
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
