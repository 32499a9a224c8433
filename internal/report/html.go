package report

import (
	"fmt"
	"html"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"dynunlock/internal/flight"
	"dynunlock/internal/insight"
	"dynunlock/internal/svgchart"
)

// HTMLOptions configures WriteHTML.
type HTMLOptions struct {
	// Title heads the report; empty selects a default.
	Title string
	// Ledger, when non-nil, adds the cross-run comparison table of
	// BENCH_attack.json rows (LedgerPath labels it).
	Ledger     *flight.BenchFile
	LedgerPath string
	// OutDir is the directory the HTML will live in; profile links are
	// rendered relative to it. Empty links bundle paths as given.
	OutDir string
}

// WriteHTML renders the bundles as one self-contained static HTML report:
// no scripts, no external stylesheets or images — every chart is an inline
// SVG. The output is deterministic for fixed inputs (no timestamps, stable
// ordering, fixed number formatting), so re-rendering the same bundles is
// byte-identical — a property CI uses to treat reports as build artifacts.
//
// Each bundle section carries a configuration summary, the per-trial
// outcome table, the rank/seed-space curve (re-derived offline by replaying
// the DIP transcript through the insight tracker), per-iteration solve-time
// and oracle-cycle timelines, solver hotspots, and links to any pprof
// captures recorded in the bundle (format version 2).
func WriteHTML(w io.Writer, bundles []*flight.Bundle, opts HTMLOptions) error {
	title := opts.Title
	if title == "" {
		title = fmt.Sprintf("DynUnlock run report (%d bundle(s))", len(bundles))
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
h3{font-size:1em;margin-bottom:.3em}
table{border-collapse:collapse;margin:.6em 0;font-size:.85em}
th,td{border:1px solid #ccc;padding:.25em .6em;text-align:right}
th{background:#f2f2f2}td:first-child,th:first-child{text-align:left}
figure.chart{margin:.8em 0;display:inline-block}
figcaption{font-size:.85em;font-weight:600;margin-bottom:.2em}
%s
.note{color:#777;font-size:.85em}
nav a{margin-right:1em}
</style>
</head>
<body>
`, html.EscapeString(title), svgchart.CSS)
	fmt.Fprintf(&b, "<h1>%s</h1>\n", html.EscapeString(title))

	// Navigation and cross-bundle overview.
	b.WriteString("<nav>")
	for i, bun := range bundles {
		fmt.Fprintf(&b, `<a href="#bundle-%d">%s</a>`, i, html.EscapeString(filepath.Base(bun.Dir)))
	}
	b.WriteString("</nav>\n")
	writeOverviewTable(&b, bundles)
	if opts.Ledger != nil {
		writeLedgerTable(&b, opts.Ledger, opts.LedgerPath, bundles)
	}

	for i, bun := range bundles {
		writeBundleSection(&b, i, bun, opts)
	}
	b.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeOverviewTable renders the cross-run comparison of the bundles being
// reported: one normalized ledger-shaped row per bundle.
func writeOverviewTable(b *strings.Builder, bundles []*flight.Bundle) {
	b.WriteString("<h2 id=\"overview\">Cross-run comparison</h2>\n")
	b.WriteString("<table><tr><th>Bundle</th><th>Benchmark</th><th>Config</th><th>Trials</th>" +
		"<th>Avg iterations</th><th>Avg queries</th><th>Avg candidates</th><th>Avg seconds</th>" +
		"<th>Conflicts</th><th>Propagations</th><th>Broken</th></tr>\n")
	for i, bun := range bundles {
		r := flight.BenchRowFrom(bun)
		fmt.Fprintf(b, `<tr><td><a href="#bundle-%d">%s</a></td><td>%s</td><td>%s</td><td>%d</td>`+
			"<td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%v</td></tr>\n",
			i, html.EscapeString(filepath.Base(bun.Dir)), html.EscapeString(r.Benchmark),
			html.EscapeString(r.ConfigString()), r.Trials,
			trimFloat(r.AvgIterations), trimFloat(r.AvgQueries), trimFloat(r.AvgCandidates),
			trimFloat(r.AvgSeconds), r.TotalConflicts, r.TotalPropagations, r.Broken)
	}
	b.WriteString("</table>\n")
}

// writeLedgerTable renders the BENCH_attack.json rows, with a delta column
// against any reported bundle sharing the row's configuration.
func writeLedgerTable(b *strings.Builder, ledger *flight.BenchFile, path string, bundles []*flight.Bundle) {
	fmt.Fprintf(b, "<h2 id=\"ledger\">Benchmark ledger (%s)</h2>\n", html.EscapeString(path))
	b.WriteString("<table><tr><th>Recorded</th><th>Bundle</th><th>Benchmark</th><th>Config</th>" +
		"<th>Trials</th><th>Avg iterations</th><th>Avg seconds</th><th>Conflicts</th><th>Broken</th>" +
		"<th>Δ iters vs this report</th></tr>\n")
	for _, r := range ledger.Rows {
		delta := ""
		for _, bun := range bundles {
			cur := flight.BenchRowFrom(bun)
			if cur.Benchmark == r.Benchmark && cur.Scale == r.Scale && cur.KeyBits == r.KeyBits &&
				cur.Policy == r.Policy && cur.Mode == r.Mode {
				delta = trimFloat(cur.AvgIterations - r.AvgIterations)
				break
			}
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%d</td><td>%v</td><td>%s</td></tr>\n",
			html.EscapeString(r.RecordedAt), html.EscapeString(r.Bundle), html.EscapeString(r.Benchmark),
			html.EscapeString(r.ConfigString()), r.Trials, trimFloat(r.AvgIterations),
			trimFloat(r.AvgSeconds), r.TotalConflicts, r.Broken, delta)
	}
	b.WriteString("</table>\n")
}

// writeBundleSection renders one bundle: summary, trial table, charts,
// hotspots, and profile links.
func writeBundleSection(b *strings.Builder, idx int, bun *flight.Bundle, opts HTMLOptions) {
	m := &bun.Manifest
	fmt.Fprintf(b, "<h2 id=\"bundle-%d\">%s</h2>\n", idx, html.EscapeString(filepath.Base(bun.Dir)))
	fmt.Fprintf(b, "<p class=\"note\">%s · recorded %s by %s · %s %s/%s · format v%d</p>\n",
		html.EscapeString(bun.Dir), html.EscapeString(m.CreatedAt), html.EscapeString(orDashHTML(m.Tool)),
		html.EscapeString(m.Fingerprint.GoVersion), html.EscapeString(m.Fingerprint.GOOS),
		html.EscapeString(m.Fingerprint.GOARCH), m.FormatVersion)
	fmt.Fprintf(b, "<p>%s scale=%d keybits=%d policy=%s mode=%s seed=%d · %d session(s), %d DIP iteration(s)</p>\n",
		html.EscapeString(m.Benchmark), m.Scale, m.Lock.KeyBits, html.EscapeString(m.Lock.Policy),
		html.EscapeString(m.Mode), m.SeedBase, len(bun.Sessions), len(bun.DIPs))

	// Trial outcomes.
	b.WriteString("<table><tr><th>Trial</th><th>Candidates</th><th>Iterations</th><th>Queries</th>" +
		"<th>Rank</th><th>Seconds</th><th>Conflicts</th><th>Enc vars</th><th>Enc clauses</th><th>Success</th></tr>\n")
	for _, t := range bun.Result.Trials {
		fmt.Fprintf(b, "<tr><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%v</td></tr>\n",
			t.Trial, len(t.SeedCandidates), t.Iterations, t.Queries, t.Rank,
			trimFloat(t.Seconds), t.Solver.Conflicts, t.EncodeVars, t.EncodeClauses, t.Success)
	}
	b.WriteString("</table>\n")

	writeRankChart(b, bun)
	writeSolveTimeChart(b, bun)
	writeCycleChart(b, bun)
	writeHotspots(b, bun)
	writeProfileLinks(b, bun, opts)
}

// writeRankChart replays the bundle's DIP transcript through the insight
// tracker (offline, no chip) and plots the certified rank climbing toward
// its analytic target while the surviving seed-space exponent falls.
func writeRankChart(b *strings.Builder, bun *flight.Bundle) {
	d, err := bun.Design()
	if err != nil {
		fmt.Fprintf(b, "<p class=\"note\">rank curve unavailable: %s</p>\n", html.EscapeString(err.Error()))
		return
	}
	trials := dipsByTrial(bun)
	var ss []series
	target := 0
	for _, tr := range trials {
		tk, err := insight.New(d, insight.Options{})
		if err != nil {
			fmt.Fprintf(b, "<p class=\"note\">rank curve unavailable: %s</p>\n", html.EscapeString(err.Error()))
			return
		}
		target = tk.TargetRank()
		for _, rec := range tr.dips {
			dip, errD := flight.ParseBits(rec.DIP)
			resp, errR := flight.ParseBits(rec.Response)
			if errD != nil || errR != nil {
				continue
			}
			tk.Observe(dip, resp)
		}
		rank := series{Name: fmt.Sprintf("trial %d rank", tr.trial)}
		seeds := series{Name: fmt.Sprintf("trial %d seeds", tr.trial), Dashed: true}
		rank.X, rank.Y = append(rank.X, 0), append(rank.Y, 0)
		seeds.X, seeds.Y = append(seeds.X, 0), append(seeds.Y, float64(d.Config.KeyBits))
		for _, p := range tk.History() {
			rank.X, rank.Y = append(rank.X, float64(p.DIP)), append(rank.Y, float64(p.Rank))
			seeds.X, seeds.Y = append(seeds.X, float64(p.DIP)), append(seeds.Y, float64(p.SeedsLog2))
		}
		ss = append(ss, rank, seeds)
	}
	if len(ss) > 0 {
		// Horizontal target-rank reference line spanning the widest trial.
		xmax := 1.0
		for _, s := range ss {
			if n := len(s.X); n > 0 {
				xmax = max2(xmax, s.X[n-1])
			}
		}
		ss = append(ss, series{Name: "rank target", Dashed: true,
			X: []float64{0, xmax}, Y: []float64{float64(target), float64(target)}})
	}
	b.WriteString(lineChart("Rank / seed-space curve (insight replay)", "DIP iteration", "bits", ss))
	b.WriteString("\n")
}

// writeSolveTimeChart plots each iteration's SAT solve wall time.
func writeSolveTimeChart(b *strings.Builder, bun *flight.Bundle) {
	var ss []series
	for _, tr := range dipsByTrial(bun) {
		s := series{Name: fmt.Sprintf("trial %d", tr.trial)}
		for _, rec := range tr.dips {
			s.X = append(s.X, float64(rec.Iteration))
			s.Y = append(s.Y, rec.SolveMS)
		}
		ss = append(ss, s)
	}
	b.WriteString(lineChart("Per-iteration solve time", "DIP iteration", "solve ms", ss))
	b.WriteString("\n")
}

// writeCycleChart plots the scan-cycle cost of every oracle session in
// issue order, one series per trial.
func writeCycleChart(b *strings.Builder, bun *flight.Bundle) {
	byTrial := map[int]*series{}
	var order []int
	for _, s := range bun.Sessions {
		ser := byTrial[s.Trial]
		if ser == nil {
			ser = &series{Name: fmt.Sprintf("trial %d", s.Trial)}
			byTrial[s.Trial] = ser
			order = append(order, s.Trial)
		}
		ser.X = append(ser.X, float64(s.Seq))
		ser.Y = append(ser.Y, float64(s.Cycles))
	}
	sort.Ints(order)
	var ss []series
	for _, t := range order {
		ss = append(ss, *byTrial[t])
	}
	b.WriteString(lineChart("Oracle scan cycles per session", "session (issue order)", "cycles", ss))
	b.WriteString("\n")
}

// writeHotspots renders per-iteration solver effort: the conflict delta
// chart and a table of the heaviest iterations (the DIP records snapshot
// cumulative counters, so consecutive differences localize the work).
func writeHotspots(b *strings.Builder, bun *flight.Bundle) {
	type spot struct {
		trial, iter int
		conf, prop  uint64
		solveMS     float64
	}
	var spots []spot
	var ss []series
	for _, tr := range dipsByTrial(bun) {
		s := series{Name: fmt.Sprintf("trial %d", tr.trial)}
		var prevC, prevP uint64
		for _, rec := range tr.dips {
			dc := rec.Solver.Conflicts - prevC
			dp := rec.Solver.Propagations - prevP
			prevC, prevP = rec.Solver.Conflicts, rec.Solver.Propagations
			spots = append(spots, spot{tr.trial, rec.Iteration, dc, dp, rec.SolveMS})
			s.X = append(s.X, float64(rec.Iteration))
			s.Y = append(s.Y, float64(dc))
		}
		ss = append(ss, s)
	}
	b.WriteString(lineChart("Solver conflicts per iteration", "DIP iteration", "conflicts Δ", ss))
	b.WriteString("\n")
	if len(spots) == 0 {
		return
	}
	sort.SliceStable(spots, func(i, j int) bool { return spots[i].conf > spots[j].conf })
	n := len(spots)
	if n > 5 {
		n = 5
	}
	fmt.Fprintf(b, "<h3>Solver hotspots (top %d of %d iterations by conflicts)</h3>\n", n, len(spots))
	b.WriteString("<table><tr><th>Trial</th><th>Iteration</th><th>Conflicts Δ</th><th>Propagations Δ</th><th>Solve ms</th></tr>\n")
	for _, s := range spots[:n] {
		fmt.Fprintf(b, "<tr><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td></tr>\n",
			s.trial, s.iter, s.conf, s.prop, trimFloat(s.solveMS))
	}
	b.WriteString("</table>\n")
}

// writeProfileLinks links any pprof captures stored in the bundle (format
// version 2 manifests).
func writeProfileLinks(b *strings.Builder, bun *flight.Bundle, opts HTMLOptions) {
	if len(bun.Manifest.Profiles) == 0 {
		return
	}
	b.WriteString("<h3>Profiles</h3>\n<p>")
	for i, p := range bun.Manifest.Profiles {
		target := filepath.Join(bun.Dir, p)
		if opts.OutDir != "" {
			if rel, err := filepath.Rel(opts.OutDir, target); err == nil {
				target = rel
			}
		}
		if i > 0 {
			b.WriteString(" · ")
		}
		fmt.Fprintf(b, `<a href="%s">%s</a>`, html.EscapeString(filepath.ToSlash(target)), html.EscapeString(p))
	}
	b.WriteString("</p>\n<p class=\"note\">inspect with: go tool pprof &lt;file&gt;</p>\n")
}

// trialDIPs groups one trial's DIP records in iteration order.
type trialDIPs struct {
	trial int
	dips  []flight.DIPRecord
}

// dipsByTrial splits the bundle's DIP transcript per trial, each sorted by
// iteration, trials in ascending order.
func dipsByTrial(bun *flight.Bundle) []trialDIPs {
	byTrial := map[int][]flight.DIPRecord{}
	for _, d := range bun.DIPs {
		byTrial[d.Trial] = append(byTrial[d.Trial], d)
	}
	trials := make([]int, 0, len(byTrial))
	for t := range byTrial {
		trials = append(trials, t)
	}
	sort.Ints(trials)
	out := make([]trialDIPs, 0, len(trials))
	for _, t := range trials {
		dips := byTrial[t]
		sort.SliceStable(dips, func(i, j int) bool { return dips[i].Iteration < dips[j].Iteration })
		out = append(out, trialDIPs{trial: t, dips: dips})
	}
	return out
}

func orDashHTML(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
