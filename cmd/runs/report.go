package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"dynunlock/internal/anatomy"
	"dynunlock/internal/flight"
	"dynunlock/internal/report"
)

// cmdReport renders bundles as one Markdown document on stdout (see the
// package doc), each read through its anatomy report, then holds every
// trial to the paper's claims (checkClaims). Arguments are bundle
// directories or parents of bundles: a directory without a manifest.json
// expands to its immediate children that have one, in sorted order — so
// `runs report bench/bundles/table2` reports every committed condition of
// that sweep.
func cmdReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ledgerPath := fs.String("bench", "", "benchmark ledger for the ledger table (e.g. BENCH_attack.json)")
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if fs.NArg() < 1 {
		return usage(stderr)
	}

	dirs, err := expandBundleDirs(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "runs: %v\n", err)
		return exitCorrupt
	}
	var runs []*anatomy.Report
	for _, dir := range dirs {
		r, ok := derive(dir, stderr)
		if !ok {
			return exitCorrupt
		}
		runs = append(runs, r)
	}
	var ledger *flight.BenchFile
	if *ledgerPath != "" {
		if ledger, err = flight.ReadBenchFile(*ledgerPath); err != nil {
			fmt.Fprintf(stderr, "runs: %v\n", err)
			return exitCorrupt
		}
	}

	fmt.Fprintf(stdout, "# Run report: %d bundle(s)\n\n", len(runs))
	crossRunTable(runs).Render(stdout)
	if ledger != nil {
		fmt.Fprintln(stdout)
		ledgerTable(ledger, *ledgerPath, runs).Render(stdout)
	}
	for _, tb := range trendTables(runs) {
		fmt.Fprintln(stdout)
		tb.Render(stdout)
	}
	for _, r := range runs {
		fmt.Fprintf(stdout, "\n## %s\n\n", filepath.Base(r.Dir))
		renderExplain(stdout, r, 5)
	}

	broken := checkClaims(runs)
	for _, s := range broken {
		fmt.Fprintf(stderr, "runs: %s\n", s)
	}
	if len(broken) > 0 {
		return exitMismatch
	}
	return exitOK
}

// crossRunTable is the first table of a report: one ledger-shaped row per
// bundle, with the scan-flop count of the paper's Table II. EXPERIMENTS.md
// embeds it verbatim.
func crossRunTable(runs []*anatomy.Report) *report.Table {
	tb := report.New("Cross-run comparison", "Bundle", "Benchmark", "Config", "Flops", "Trials",
		"Avg iterations", "Avg queries", "Avg candidates", "Avg seconds", "Conflicts", "Propagations", "Broken")
	for _, run := range runs {
		r := flight.BenchRowFrom(run.Bundle)
		tb.AddRow(r.Bundle, r.Benchmark, r.ConfigString(), run.Bundle.Manifest.Lock.ChainLength, r.Trials,
			r.AvgIterations, r.AvgQueries, r.AvgCandidates, r.AvgSeconds, r.TotalConflicts, r.TotalPropagations, r.Broken)
	}
	return tb
}

// ledgerTable lists the BENCH_attack.json rows, with the change in average
// iterations against the first reported bundle of the row's configuration.
func ledgerTable(ledger *flight.BenchFile, path string, runs []*anatomy.Report) *report.Table {
	tb := report.New(fmt.Sprintf("Benchmark ledger (%s)", path), "Recorded", "Bundle", "Benchmark", "Config",
		"Trials", "Avg iterations", "Avg seconds", "Conflicts", "Broken", "Δ iters vs this report")
	for _, r := range ledger.Rows {
		delta := ""
		for _, run := range runs {
			if cur := flight.BenchRowFrom(run.Bundle); cur.SameConfig(r) {
				delta = fmt.Sprintf("%+g", cur.AvgIterations-r.AvgIterations)
				break
			}
		}
		tb.AddRow(r.RecordedAt, r.Bundle, r.Benchmark, r.ConfigString(), r.Trials,
			r.AvgIterations, r.AvgSeconds, r.TotalConflicts, r.Broken, delta)
	}
	return tb
}

// trendTables lines the runs up, one row each: the seconds of every stage
// any run has (in the order the reports list them, Fig. 3 order with
// "other" last), the solver's work, and the per-DIP difficulty.
func trendTables(runs []*anatomy.Report) []*report.Table {
	var stages []string
	for _, r := range runs {
		for _, s := range r.Stages {
			if !slices.Contains(stages, s.Name) {
				stages = append(stages, s.Name)
			}
		}
	}
	st := report.New("Trends: seconds per stage", append([]string{"Bundle"}, stages...)...)
	work := report.New("Trends: solver work", "Bundle", "Conflicts", "Learnt", "Restarts")
	diff := report.New("Trends: DIP difficulty", "Bundle", "DIPs", "Mean", "Max")
	for _, r := range runs {
		name := filepath.Base(r.Dir)
		row := []any{name}
		for _, s := range stages {
			row = append(row, fmt.Sprintf("%.4f", r.StageSeconds(s)))
		}
		st.AddRow(row...)
		work.AddRow(name, r.Solver.Conflicts, r.Solver.Learnt, r.Solver.Restarts)
		var sum, hardest float64
		for _, d := range r.DIPs {
			sum += d.Difficulty
			hardest = max(hardest, d.Difficulty)
		}
		mean := 0.0
		if len(r.DIPs) > 0 {
			mean = sum / float64(len(r.DIPs))
		}
		diff.AddRow(name, len(r.DIPs), fmt.Sprintf("%.1f", mean), fmt.Sprintf("%.1f", hardest))
	}
	return []*report.Table{st, work, diff}
}

// checkClaims holds every trial to the paper's claims (EXPERIMENTS.md
// numbers them): the circuit is broken, the secret seed is among the
// candidates and they are probe-verified (claim 1); an exact candidate set
// holds 2^(keyBits − rank) seeds (claim 2); and the attack took at most 17
// iterations at 128 key bits or fewer, 27 above (claim 4, Tables II and
// III). It returns one line per broken claim, naming the bundle and trial.
func checkClaims(runs []*anatomy.Report) []string {
	var out []string
	for _, r := range runs {
		k := r.Bundle.Manifest.Lock.KeyBits
		maxIters := 17
		if k > 128 {
			maxIters = 27
		}
		for _, t := range r.Bundle.Result.Trials {
			fail := func(format string, args ...any) {
				out = append(out, fmt.Sprintf("%s trial %d: ", r.Dir, t.Trial)+fmt.Sprintf(format, args...))
			}
			if !t.Success {
				fail("claim 1: the attack did not succeed")
			}
			if !slices.Contains(t.SeedCandidates, t.SecretSeed) {
				fail("claim 1: the secret seed is not among the %d candidates", len(t.SeedCandidates))
			}
			if !t.Verified {
				fail("claim 1: the candidates are not verified")
			}
			if free := k - t.Rank; t.Exact && (free < 0 || free > 62 || len(t.SeedCandidates) != 1<<free) {
				fail("claim 2: %d exact candidates, want 2^(%d-%d)", len(t.SeedCandidates), k, t.Rank)
			}
			if t.Iterations > maxIters {
				fail("claim 4: %d iterations, above the paper's %d at %d key bits", t.Iterations, maxIters, k)
			}
		}
	}
	return out
}

// expandBundleDirs resolves each argument to bundle directories: a path
// containing manifest.json is itself a bundle; otherwise its immediate
// children holding a manifest.json are used, sorted by name.
func expandBundleDirs(args []string) ([]string, error) {
	var out []string
	for _, arg := range args {
		if _, err := os.Stat(filepath.Join(arg, flight.ManifestFile)); err == nil {
			out = append(out, arg)
			continue
		}
		entries, err := os.ReadDir(arg)
		if err != nil {
			return nil, err
		}
		var kids []string
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			child := filepath.Join(arg, e.Name())
			if _, err := os.Stat(filepath.Join(child, flight.ManifestFile)); err == nil {
				kids = append(kids, child)
			}
		}
		if len(kids) == 0 {
			return nil, fmt.Errorf("%s: no bundle (manifest.json) found in it or its children", arg)
		}
		sort.Strings(kids)
		out = append(out, kids...)
	}
	return out, nil
}
