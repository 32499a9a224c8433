package report

import (
	"cmp"
	"fmt"
	"html"
	"io"
	"path/filepath"
	"slices"
	"strings"

	"dynunlock/internal/anatomy"
	"dynunlock/internal/flight"
	"dynunlock/internal/insight"
	"dynunlock/internal/svgchart"
)

// HTMLOptions configures WriteHTML.
type HTMLOptions struct {
	// Title heads the report; empty selects a default.
	Title string
	// Ledger, when non-nil, adds the cross-run comparison table of
	// BENCH_attack.json rows and its avg-seconds history chart
	// (LedgerPath labels them).
	Ledger     *flight.BenchFile
	LedgerPath string
	// OutDir is the directory the HTML will live in; profile links are
	// rendered relative to it. Empty links bundle paths as given.
	OutDir string
}

// WriteHTML renders the runs — anatomy reports of loaded bundles
// (anatomy.FromDir) — as one self-contained static HTML report: no
// scripts, no external stylesheets or images — every chart is an inline
// SVG. The output is deterministic for fixed inputs (no timestamps, stable
// ordering, fixed number formatting), so re-rendering the same bundles is
// byte-identical — a property CI uses to treat reports as build artifacts.
//
// After the cross-run tables, a Trends section charts per-stage seconds,
// solver work and DIP difficulty across the runs (plus the ledger's
// avg-seconds history when a ledger is given). Each bundle section carries
// a configuration summary, the per-trial outcome table, the rank/seed-space
// curve (re-derived offline by replaying the DIP transcript through the
// insight tracker), per-iteration solve-time and oracle-cycle timelines,
// solver hotspots, and links to any pprof captures recorded in the bundle.
func WriteHTML(w io.Writer, runs []*anatomy.Report, opts HTMLOptions) error {
	title := opts.Title
	if title == "" {
		title = fmt.Sprintf("DynUnlock run report (%d bundle(s))", len(runs))
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
	for i, r := range runs {
		fmt.Fprintf(&b, `<a href="#bundle-%d">%s</a>`, i, html.EscapeString(filepath.Base(r.Dir)))
	}
	b.WriteString("</nav>\n")
	writeOverviewTable(&b, runs)
	if opts.Ledger != nil {
		writeLedgerTable(&b, opts.Ledger, opts.LedgerPath, runs)
	}
	writeTrends(&b, runs, opts)

	for i, r := range runs {
		writeBundleSection(&b, i, r, opts)
	}
	b.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeOverviewTable renders the cross-run comparison of the bundles being
// reported: one normalized ledger-shaped row per bundle.
func writeOverviewTable(b *strings.Builder, runs []*anatomy.Report) {
	b.WriteString("<h2 id=\"overview\">Cross-run comparison</h2>\n")
	b.WriteString("<table><tr><th>Bundle</th><th>Benchmark</th><th>Config</th><th>Trials</th>" +
		"<th>Avg iterations</th><th>Avg queries</th><th>Avg candidates</th><th>Avg seconds</th>" +
		"<th>Conflicts</th><th>Propagations</th><th>Broken</th></tr>\n")
	for i, run := range runs {
		r := flight.BenchRowFrom(run.Bundle)
		fmt.Fprintf(b, `<tr><td><a href="#bundle-%d">%s</a></td><td>%s</td><td>%s</td><td>%d</td>`+
			"<td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%v</td></tr>\n",
			i, html.EscapeString(filepath.Base(run.Dir)), html.EscapeString(r.Benchmark),
			html.EscapeString(r.ConfigString()), r.Trials,
			trimFloat(r.AvgIterations), trimFloat(r.AvgQueries), trimFloat(r.AvgCandidates),
			trimFloat(r.AvgSeconds), r.TotalConflicts, r.TotalPropagations, r.Broken)
	}
	b.WriteString("</table>\n")
}

// writeLedgerTable renders the BENCH_attack.json rows, with a delta column
// against the first reported bundle sharing the row's configuration.
func writeLedgerTable(b *strings.Builder, ledger *flight.BenchFile, path string, runs []*anatomy.Report) {
	fmt.Fprintf(b, "<h2 id=\"ledger\">Benchmark ledger (%s)</h2>\n", html.EscapeString(path))
	b.WriteString("<table><tr><th>Recorded</th><th>Bundle</th><th>Benchmark</th><th>Config</th>" +
		"<th>Trials</th><th>Avg iterations</th><th>Avg seconds</th><th>Conflicts</th><th>Broken</th>" +
		"<th>Δ iters vs this report</th></tr>\n")
	for _, r := range ledger.Rows {
		delta := ""
		for _, run := range runs {
			if cur := flight.BenchRowFrom(run.Bundle); cur.SameConfig(r) {
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

// writeTrends charts the runs side by side, run i being the i-th row of
// the cross-run comparison: per-stage seconds, solver work and DIP
// difficulty, plus the ledger's avg-seconds history when one is given.
func writeTrends(b *strings.Builder, runs []*anatomy.Report, opts HTMLOptions) {
	b.WriteString("<h2 id=\"trends\">Trends</h2>\n")
	b.WriteString("<p class=\"note\">run i is row i of the cross-run comparison (from 0)</p>\n")
	b.WriteString(lineChart("Per-stage wall time across runs", "run", "seconds", stageSeries(runs)))
	b.WriteString("\n")
	b.WriteString(lineChart("Solver work across runs", "run", "count", workSeries(runs)))
	b.WriteString("\n")
	b.WriteString(lineChart("DIP difficulty across runs", "run", "difficulty", difficultySeries(runs)))
	b.WriteString("\n")
	if opts.Ledger != nil && len(opts.Ledger.Rows) > 0 {
		b.WriteString(lineChart("Avg attack seconds per ledger row", "row", "seconds", ledgerSeries(opts.Ledger)))
		b.WriteString("\n")
	}
}

// stageSeries builds one series per stage that appears in any run, in the
// order the reports list them (Fig. 3 order with "other" last).
func stageSeries(runs []*anatomy.Report) []series {
	var order []string
	seen := map[string]bool{}
	for _, r := range runs {
		for _, s := range r.Stages {
			if !seen[s.Name] {
				seen[s.Name] = true
				order = append(order, s.Name)
			}
		}
	}
	var out []series
	for _, name := range order {
		s := series{Name: name}
		for i, r := range runs {
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, r.StageSeconds(name))
		}
		out = append(out, s)
	}
	return out
}

// workSeries tracks the machine-independent solver effort across runs.
func workSeries(runs []*anatomy.Report) []series {
	conflicts := series{Name: "conflicts"}
	learnt := series{Name: "learnt"}
	restarts := series{Name: "restarts"}
	for i, r := range runs {
		x := float64(i)
		conflicts.X, conflicts.Y = append(conflicts.X, x), append(conflicts.Y, float64(r.Solver.Conflicts))
		learnt.X, learnt.Y = append(learnt.X, x), append(learnt.Y, float64(r.Solver.Learnt))
		restarts.X, restarts.Y = append(restarts.X, x), append(restarts.Y, float64(r.Solver.Restarts))
	}
	return []series{conflicts, learnt, restarts}
}

// difficultySeries tracks the mean and max per-DIP difficulty across runs.
func difficultySeries(runs []*anatomy.Report) []series {
	mean := series{Name: "mean"}
	top := series{Name: "max", Dashed: true}
	for i, r := range runs {
		var sum, hardest float64
		for _, d := range r.DIPs {
			sum += d.Difficulty
			hardest = max(hardest, d.Difficulty)
		}
		m := 0.0
		if len(r.DIPs) > 0 {
			m = sum / float64(len(r.DIPs))
		}
		mean.X, mean.Y = append(mean.X, float64(i)), append(mean.Y, m)
		top.X, top.Y = append(top.X, float64(i)), append(top.Y, hardest)
	}
	return []series{mean, top}
}

// ledgerSeries builds one avg-seconds series per benchmark over the
// ledger's append order.
func ledgerSeries(ledger *flight.BenchFile) []series {
	return groupSeries(len(ledger.Rows), func(name string) string { return name }, func(i int) (string, float64, float64) {
		return ledger.Rows[i].Benchmark, float64(i), ledger.Rows[i].AvgSeconds
	})
}

// writeBundleSection renders one bundle: summary, trial table, charts,
// hotspots, and profile links.
func writeBundleSection(b *strings.Builder, idx int, run *anatomy.Report, opts HTMLOptions) {
	bun := run.Bundle
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
	b.WriteString(lineChart("Per-iteration solve time", "DIP iteration", "solve ms", dipSeries(run,
		func(d anatomy.DIP) float64 { return d.SolveMS })))
	b.WriteString("\n")
	b.WriteString(lineChart("Oracle scan cycles per session", "session (issue order)", "cycles",
		groupSeries(len(bun.Sessions), trialName, func(i int) (int, float64, float64) {
			s := bun.Sessions[i]
			return s.Trial, float64(s.Seq), float64(s.Cycles)
		})))
	b.WriteString("\n")
	writeHotspots(b, run)
	writeProfileLinks(b, bun, opts)
}

// writeRankChart replays the bundle's DIP transcript through the insight
// tracker (offline, no chip), one tracker per trial, and plots the
// certified rank climbing toward its analytic target while the surviving
// seed-space exponent falls.
func writeRankChart(b *strings.Builder, bun *flight.Bundle) {
	unavailable := func(err error) {
		fmt.Fprintf(b, "<p class=\"note\">rank curve unavailable: %s</p>\n", html.EscapeString(err.Error()))
	}
	d, err := bun.Design()
	if err != nil {
		unavailable(err)
		return
	}
	trackers := map[int]*insight.Tracker{}
	var trials []int
	for _, rec := range bun.DIPs {
		tk := trackers[rec.Trial]
		if tk == nil {
			if tk, err = insight.New(d, insight.Options{}); err != nil {
				unavailable(err)
				return
			}
			trackers[rec.Trial] = tk
			trials = append(trials, rec.Trial)
		}
		dip, errD := flight.ParseBits(rec.DIP)
		resp, errR := flight.ParseBits(rec.Response)
		if errD != nil || errR != nil {
			continue
		}
		tk.Observe(dip, resp)
	}
	slices.Sort(trials)
	var ss []series
	target := 0
	for _, trial := range trials {
		tk := trackers[trial]
		target = tk.TargetRank()
		rank := series{Name: trialName(trial) + " rank"}
		seeds := series{Name: trialName(trial) + " seeds", Dashed: true}
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
				xmax = max(xmax, s.X[n-1])
			}
		}
		ss = append(ss, series{Name: "rank target", Dashed: true,
			X: []float64{0, xmax}, Y: []float64{float64(target), float64(target)}})
	}
	b.WriteString(lineChart("Rank / seed-space curve (insight replay)", "DIP iteration", "bits", ss))
	b.WriteString("\n")
}

// writeHotspots renders per-iteration solver effort from the anatomy
// report: the per-iteration conflict deltas and the hardest iterations by
// difficulty, as `runs explain` ranks them.
func writeHotspots(b *strings.Builder, run *anatomy.Report) {
	b.WriteString(lineChart("Solver conflicts per iteration", "DIP iteration", "conflicts Δ", dipSeries(run,
		func(d anatomy.DIP) float64 { return float64(d.Delta.Conflicts) })))
	b.WriteString("\n")
	hard := run.Hardest(5)
	if len(hard) == 0 {
		return
	}
	fmt.Fprintf(b, "<h3>Solver hotspots (top %d of %d iterations by difficulty)</h3>\n", len(hard), len(run.DIPs))
	b.WriteString("<table><tr><th>Trial</th><th>Iteration</th><th>Conflicts Δ</th><th>Propagations Δ</th><th>Solve ms</th><th>Difficulty</th></tr>\n")
	for _, d := range hard {
		fmt.Fprintf(b, "<tr><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%.1f</td></tr>\n",
			d.Trial, d.Iteration, d.Delta.Conflicts, d.Delta.Propagations, trimFloat(d.SolveMS), d.Difficulty)
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

// dipSeries plots y over the DIP iteration, one series per trial.
func dipSeries(run *anatomy.Report, y func(anatomy.DIP) float64) []series {
	return groupSeries(len(run.DIPs), trialName, func(i int) (int, float64, float64) {
		d := run.DIPs[i]
		return d.Trial, float64(d.Iteration), y(d)
	})
}

func trialName(trial int) string { return fmt.Sprintf("trial %d", trial) }

// groupSeries splits n points into one series per key, keys ascending and
// points in the order given.
func groupSeries[K cmp.Ordered](n int, name func(K) string, at func(i int) (key K, x, y float64)) []series {
	byKey := map[K]*series{}
	var keys []K
	for i := 0; i < n; i++ {
		k, x, y := at(i)
		s := byKey[k]
		if s == nil {
			s = &series{Name: name(k)}
			byKey[k] = s
			keys = append(keys, k)
		}
		s.X, s.Y = append(s.X, x), append(s.Y, y)
	}
	slices.Sort(keys)
	out := make([]series, len(keys))
	for i, k := range keys {
		out[i] = *byKey[k]
	}
	return out
}

func orDashHTML(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
