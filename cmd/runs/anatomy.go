package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dynunlock/internal/anatomy"
	"dynunlock/internal/flight"
	"dynunlock/internal/report"
	"dynunlock/internal/svgchart"
)

// cmdExplain renders the attribution report of one bundle: the wall-time
// split across the Fig. 3 stages (rows sum exactly to the recorded
// elapsedSeconds), the solver counter totals (exactly the sum of
// result.json's per-trial snapshots), the hottest stage, the hardest DIP
// iterations by difficulty score, and — when the bundle carries live
// search telemetry (anatomy.json) — the sampled LBD distribution and
// restart counts. A bundle recorded with the capture off explains from its
// trace/DIP transcript alone. -json emits the report as machine-readable
// JSON for CI assertions.
func cmdExplain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the attribution report as JSON")
	top := fs.Int("top", 5, "number of hardest DIP iterations to list")
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if fs.NArg() != 1 {
		return usage(stderr)
	}
	r, err := anatomy.FromDir(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "runs: %v\n", err)
		return exitCorrupt
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fmt.Fprintf(stderr, "runs: %v\n", err)
			return exitCorrupt
		}
		return exitOK
	}
	renderExplain(stdout, r, *top)
	return exitOK
}

// renderExplain writes the deterministic text report.
func renderExplain(w io.Writer, r *anatomy.Report, top int) {
	fmt.Fprintf(w, "anatomy of %s\n", r.Dir)
	fmt.Fprintf(w, "wall time  %.3fs across %d DIP iteration(s)\n\n", r.TotalSeconds, len(r.DIPs))

	tb := report.New("Wall-time attribution (stages sum to the recorded wall time)",
		"Stage", "Seconds", "Share", "Calls")
	for _, s := range r.Stages {
		tb.AddRow(s.Name, fmt.Sprintf("%.4f", s.Seconds), fmt.Sprintf("%.1f%%", s.Share*100), s.Calls)
	}
	tb.AddRow("total", fmt.Sprintf("%.4f", r.TotalSeconds), "100.0%", "")
	tb.Render(w)

	hot := r.HottestStage()
	fmt.Fprintf(w, "\nhottest stage: %s (%.1f%% of wall time)\n", hot.Name, hot.Share*100)
	fmt.Fprintf(w, "solver: conflicts=%d propagations=%d decisions=%d restarts=%d learnt=%d xor_propagations=%d xor_conflicts=%d xor_share=%.1f%%\n",
		r.Solver.Conflicts, r.Solver.Propagations, r.Solver.Decisions, r.Solver.Restarts,
		r.Solver.Learnt, r.Solver.XorPropagations, r.Solver.XorConflicts, r.XorShare*100)

	if hard := r.Hardest(top); len(hard) > 0 {
		fmt.Fprintln(w)
		ht := report.New(fmt.Sprintf("Hardest DIP iterations (top %d by difficulty = conflicts + propagations/1024)", len(hard)),
			"Trial", "Iter", "Solve ms", "Conflicts", "Propagations", "Difficulty")
		for _, d := range hard {
			ht.AddRow(d.Trial, d.Iteration, fmt.Sprintf("%.3f", d.SolveMS),
				d.Delta.Conflicts, d.Delta.Propagations, fmt.Sprintf("%.1f", d.Difficulty))
		}
		ht.Render(w)
	}

	if r.Search != nil {
		fmt.Fprintln(w)
		renderSearch(w, r.Search)
	}
}

// renderSearch writes the live-captured telemetry section: the sampled
// learnt-clause LBD distribution (summed over trials) and restart totals.
func renderSearch(w io.Writer, doc *flight.AnatomyDoc) {
	var total flight.LBDHist
	var restarts, restartConflicts uint64
	counts := make([]uint64, len(doc.LBDBounds)+1)
	for _, t := range doc.Trials {
		for i, c := range t.LBD.Counts {
			if i < len(counts) {
				counts[i] += c
			}
		}
		total.Samples += t.LBD.Samples
		total.SumLBD += t.LBD.SumLBD
		total.SumSize += t.LBD.SumSize
		restarts += t.Restarts
		restartConflicts += t.RestartConflicts
	}
	fmt.Fprintf(w, "search telemetry (live-captured, %d trial(s)): lbd_samples=%d mean_lbd=%.2f restarts=%d restart_conflicts=%d\n",
		len(doc.Trials), total.Samples, total.MeanLBD(), restarts, restartConflicts)
	if total.Samples == 0 {
		return
	}
	var b strings.Builder
	b.WriteString("lbd distribution:")
	for i, c := range counts {
		if c == 0 {
			continue
		}
		label := "inf"
		if i < len(doc.LBDBounds) {
			label = fmt.Sprintf("%g", doc.LBDBounds[i])
		}
		fmt.Fprintf(&b, " <=%s:%d", label, c)
	}
	fmt.Fprintln(w, b.String())
}

// cmdCompare attributes a performance change between two bundles of the
// same experiment: per-stage wall-time movement, per-series solver counter
// movement, and the worst regression of each kind named explicitly. It is
// the explanatory sibling of `runs diff` — diff decides whether outcomes
// match, compare says where the time and search effort moved.
func cmdCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		return usage(stderr)
	}
	ra, err := anatomy.FromDir(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "runs: %v\n", err)
		return exitCorrupt
	}
	rb, err := anatomy.FromDir(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "runs: %v\n", err)
		return exitCorrupt
	}
	d := anatomy.Compare(ra, rb)

	st := report.New(fmt.Sprintf("Stage wall-time movement: %s -> %s", args[0], args[1]),
		"Stage", "A seconds", "B seconds", "Delta")
	for _, s := range d.Stages {
		st.AddRow(s.Name, fmt.Sprintf("%.4f", s.ASeconds), fmt.Sprintf("%.4f", s.BSeconds),
			fmt.Sprintf("%+.4f", s.BSeconds-s.ASeconds))
	}
	st.Render(stdout)

	fmt.Fprintln(stdout)
	ct := report.New("Solver series movement", "Series", "A", "B", "Ratio")
	for _, c := range d.Counters {
		ratio := "-"
		if c.A > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(c.B)/float64(c.A))
		}
		ct.AddRow(c.Name, c.A, c.B, ratio)
	}
	ct.Render(stdout)

	fmt.Fprintln(stdout)
	if d.RegressedStage != "" {
		fmt.Fprintf(stdout, "regressed stage: %s (+%.4fs wall time)\n", d.RegressedStage, d.RegressedStageSeconds)
	} else {
		fmt.Fprintln(stdout, "regressed stage: none (no stage grew)")
	}
	if d.RegressedCounter != "" {
		fmt.Fprintf(stdout, "regressed solver series: %s (%.2fx)\n", d.RegressedCounter, d.RegressedCounterRatio)
	} else {
		fmt.Fprintln(stdout, "regressed solver series: none (no series grew)")
	}
	return exitOK
}

// cmdTrends renders a cross-run trend report over committed bundles (and
// optionally the benchmark ledger) as a self-contained HTML page of
// deterministic inline-SVG charts: per-stage wall time, solver work, and
// DIP difficulty across runs, plus the ledger's avg-seconds history when
// -bench is given. Re-rendering the same inputs is byte-identical (CI
// treats the output as a build artifact).
func cmdTrends(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trends", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the HTML trend report to this file (default: stdout)")
	ledgerPath := fs.String("bench", "", "benchmark ledger for the cross-run history chart (e.g. BENCH_attack.json)")
	title := fs.String("title", "", "report title")
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
	var reports []*anatomy.Report
	for _, dir := range dirs {
		r, err := anatomy.FromDir(dir)
		if err != nil {
			fmt.Fprintf(stderr, "runs: %v\n", err)
			return exitCorrupt
		}
		reports = append(reports, r)
	}
	var ledger *flight.BenchFile
	if *ledgerPath != "" {
		if ledger, err = flight.ReadBenchFile(*ledgerPath); err != nil {
			fmt.Fprintf(stderr, "runs: %v\n", err)
			return exitCorrupt
		}
	}
	page := trendsHTML(reports, ledger, *ledgerPath, *title)
	if *out == "" {
		io.WriteString(stdout, page)
		return exitOK
	}
	if err := os.WriteFile(*out, []byte(page), 0o644); err != nil {
		fmt.Fprintf(stderr, "runs: %v\n", err)
		return exitCorrupt
	}
	fmt.Fprintf(stderr, "runs: wrote %s (%d bundle(s), %d bytes)\n", *out, len(reports), len(page))
	return exitOK
}

// trendsHTML builds the deterministic trend page. Runs index 0..n-1 on the
// x axis in the order given (expandBundleDirs sorts directory children, so
// committed sweeps render stably).
func trendsHTML(reports []*anatomy.Report, ledger *flight.BenchFile, ledgerPath, title string) string {
	if title == "" {
		title = fmt.Sprintf("DynUnlock trend report (%d run(s))", len(reports))
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>%s</title>
<style>
body{font-family:system-ui,sans-serif;margin:2em auto;max-width:72em;padding:0 1em;color:#1a1a1a}
h1{font-size:1.5em}h2{font-size:1.2em;border-bottom:1px solid #ccc;padding-bottom:.2em;margin-top:2em}
table{border-collapse:collapse;margin:.6em 0;font-size:.85em}
th,td{border:1px solid #ccc;padding:.25em .6em;text-align:right}
th{background:#f2f2f2}td:first-child,th:first-child{text-align:left}
figure.chart{margin:.8em 0;display:inline-block}
figcaption{font-size:.85em;font-weight:600;margin-bottom:.2em}
%s
</style>
</head>
<body>
<h1>%s</h1>
`, htmlEscape(title), svgchart.CSS, htmlEscape(title))

	// Index: which run is which.
	b.WriteString("<h2>Runs</h2>\n<table><tr><th>Run</th><th>Bundle</th><th>Wall s</th><th>Conflicts</th><th>DIPs</th></tr>\n")
	for i, r := range reports {
		fmt.Fprintf(&b, "<tr><td>%d</td><td>%s</td><td>%.3f</td><td>%d</td><td>%d</td></tr>\n",
			i, htmlEscape(filepath.Base(r.Dir)), r.TotalSeconds, r.Solver.Conflicts, len(r.DIPs))
	}
	b.WriteString("</table>\n")

	b.WriteString("<h2>Trends</h2>\n")
	b.WriteString(svgchart.LineChart("Per-stage wall time across runs", "run", "seconds", stageSeries(reports)))
	b.WriteString("\n")
	b.WriteString(svgchart.LineChart("Solver work across runs", "run", "count", workSeries(reports)))
	b.WriteString("\n")
	b.WriteString(svgchart.LineChart("DIP difficulty across runs", "run", "difficulty", difficultySeries(reports)))
	b.WriteString("\n")
	if ledger != nil && len(ledger.Rows) > 0 {
		fmt.Fprintf(&b, "<h2>Ledger history (%s)</h2>\n", htmlEscape(ledgerPath))
		b.WriteString(svgchart.LineChart("Avg attack seconds per ledger row", "row", "seconds", ledgerSeries(ledger)))
		b.WriteString("\n")
	}
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

// stageSeries builds one series per stage that appears in any run, in the
// order reports list them (Fig. 3 order with "other" last).
func stageSeries(reports []*anatomy.Report) []svgchart.Series {
	var order []string
	seen := map[string]bool{}
	for _, r := range reports {
		for _, s := range r.Stages {
			if !seen[s.Name] {
				seen[s.Name] = true
				order = append(order, s.Name)
			}
		}
	}
	var out []svgchart.Series
	for _, name := range order {
		s := svgchart.Series{Name: name}
		for i, r := range reports {
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, r.StageSeconds(name))
		}
		out = append(out, s)
	}
	return out
}

// workSeries tracks the machine-independent solver effort across runs.
func workSeries(reports []*anatomy.Report) []svgchart.Series {
	conflicts := svgchart.Series{Name: "conflicts"}
	learnt := svgchart.Series{Name: "learnt"}
	restarts := svgchart.Series{Name: "restarts"}
	for i, r := range reports {
		x := float64(i)
		conflicts.X, conflicts.Y = append(conflicts.X, x), append(conflicts.Y, float64(r.Solver.Conflicts))
		learnt.X, learnt.Y = append(learnt.X, x), append(learnt.Y, float64(r.Solver.Learnt))
		restarts.X, restarts.Y = append(restarts.X, x), append(restarts.Y, float64(r.Solver.Restarts))
	}
	return []svgchart.Series{conflicts, learnt, restarts}
}

// difficultySeries tracks the mean and max per-DIP difficulty across runs.
func difficultySeries(reports []*anatomy.Report) []svgchart.Series {
	mean := svgchart.Series{Name: "mean"}
	max := svgchart.Series{Name: "max", Dashed: true}
	for i, r := range reports {
		var sum, top float64
		for _, d := range r.DIPs {
			sum += d.Difficulty
			if d.Difficulty > top {
				top = d.Difficulty
			}
		}
		m := 0.0
		if len(r.DIPs) > 0 {
			m = sum / float64(len(r.DIPs))
		}
		mean.X, mean.Y = append(mean.X, float64(i)), append(mean.Y, m)
		max.X, max.Y = append(max.X, float64(i)), append(max.Y, top)
	}
	return []svgchart.Series{mean, max}
}

// ledgerSeries builds one avg-seconds series per benchmark over the
// ledger's append order, in order of first appearance.
func ledgerSeries(ledger *flight.BenchFile) []svgchart.Series {
	var order []string
	byName := map[string]*svgchart.Series{}
	for i, row := range ledger.Rows {
		s, ok := byName[row.Benchmark]
		if !ok {
			order = append(order, row.Benchmark)
			s = &svgchart.Series{Name: row.Benchmark}
			byName[row.Benchmark] = s
		}
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, row.AvgSeconds)
	}
	out := make([]svgchart.Series, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// htmlEscape is the minimal escaping the trend page needs (paths and
// titles).
func htmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
