package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"dynunlock/internal/anatomy"
	"dynunlock/internal/flight"
	"dynunlock/internal/metrics"
	"dynunlock/internal/report"
)

// derive loads a bundle and derives its anatomy report; a load failure
// prints the fault and reports it as corrupt/unreadable (exit 3 at the
// caller).
func derive(dir string, stderr io.Writer) (*anatomy.Report, bool) {
	r, err := anatomy.FromDir(dir)
	if err != nil {
		fmt.Fprintf(stderr, "runs: %v\n", err)
		return nil, false
	}
	return r, true
}

// cmdExplain renders one bundle: the manifest summary (recording host and
// toolchain, commit, experiment, profiles, transcript sizes), the trial
// table (with how each DIP loop closed) and any stop reason, then the
// attribution — the wall-time split across the Fig. 3 stages (rows sum
// exactly to the recorded elapsedSeconds; the uniqueness checks are a
// sub-row of dip_loop), the solver counter totals (exactly the sum of
// result.json's per-trial snapshots), the hottest stage, the hardest DIP
// iterations by difficulty score, and — from the closing metrics sample in
// trace.jsonl — the sampled LBD distribution, with the restarts
// result.json records. -json emits the anatomy report as machine-readable
// JSON for CI assertions.
func cmdExplain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the attribution report as JSON")
	top := fs.Int("top", 5, "number of hardest DIP iterations to list (>= 0)")
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if *top < 0 {
		fmt.Fprintf(stderr, "runs: explain -top %d: want >= 0\n", *top)
		return exitUsage
	}
	if fs.NArg() != 1 {
		return usage(stderr)
	}
	r, ok := derive(fs.Arg(0), stderr)
	if !ok {
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

// renderExplain writes the deterministic Markdown report: the run summary
// as a list, the trial and stage tables, the headline attribution as a
// list, the hardest DIPs and the search telemetry as a list. Lists and
// tables read the same in a terminal as rendered.
func renderExplain(w io.Writer, r *anatomy.Report, top int) {
	b := r.Bundle
	m := &b.Manifest
	fmt.Fprintf(w, "- anatomy of %s\n", r.Dir)
	fmt.Fprintf(w, "- recorded %s by %s (%s %s/%s, %d CPU, host %s)\n",
		m.CreatedAt, orDash(m.Tool), m.Fingerprint.GoVersion,
		m.Fingerprint.GOOS, m.Fingerprint.GOARCH, m.Fingerprint.NumCPU, orDash(m.Fingerprint.Host))
	if m.Fingerprint.GitCommit != "" {
		fmt.Fprintf(w, "- commit %s\n", m.Fingerprint.GitCommit)
	}
	fmt.Fprintf(w, "- experiment %s scale=%d keybits=%d policy=%s mode=%s seed=%d analytic=%v\n",
		m.Benchmark, m.Scale, m.Lock.KeyBits, m.Lock.Policy, m.Mode, m.SeedBase, m.Analytic)
	if len(m.Profiles) > 0 {
		fmt.Fprintf(w, "- profiles %v\n", m.Profiles)
	}
	fmt.Fprintf(w, "- transcript %d sessions, %d DIP iterations\n", len(b.Sessions), len(b.DIPs))
	fmt.Fprintf(w, "- wall time %.3fs\n\n", r.TotalSeconds)

	tt := report.New(fmt.Sprintf("Trials (%d recorded)", len(b.Result.Trials)),
		"Trial", "Candidates", "Iterations", "Queries", "Closed", "Seconds", "Conflicts", "Enc vars", "Enc clauses", "Success")
	for _, t := range b.Result.Trials {
		tt.AddRow(t.Trial, len(t.SeedCandidates), t.Iterations, t.Queries, orDash(t.Closed),
			t.Seconds, t.Solver.Conflicts, t.EncodeVars, t.EncodeClauses, t.Success)
	}
	tt.Render(w)
	if b.Result.Stopped {
		fmt.Fprintf(w, "\nstopped early: %s\n", b.Result.StopReason)
	}

	fmt.Fprintln(w)
	report.StageTable("Wall-time attribution (stages sum to the recorded wall time)", r.Stages).Render(w)

	hot := r.HottestStage()
	fmt.Fprintf(w, "\n- hottest stage: %s (%.1f%% of wall time)\n", hot.Name, hot.Share*100)
	fmt.Fprintf(w, "- solver: conflicts=%d propagations=%d decisions=%d restarts=%d learnt=%d xor_propagations=%d xor_conflicts=%d xor_share=%.1f%%\n",
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
		renderSearch(w, r.Search, r.Solver.Restarts)
	}
}

// renderSearch writes the search telemetry section: the sampled
// learnt-clause LBD distribution over every trial, from the run's closing
// metrics sample, and the restarts result.json records.
func renderSearch(w io.Writer, s *flight.Sample, restarts uint64) {
	fmt.Fprintf(w, "- search telemetry (closing sample): lbd_samples=%d mean_lbd=%.2f restarts=%d\n",
		s.LBDSamples, s.LBDMean, restarts)
	if s.LBDSamples == 0 {
		return
	}
	var b strings.Builder
	b.WriteString("- lbd distribution:")
	for i, c := range s.LBDCounts {
		if c == 0 {
			continue
		}
		label := "inf"
		if i < len(metrics.LBDBuckets) {
			label = fmt.Sprintf("%g", metrics.LBDBuckets[i])
		}
		fmt.Fprintf(&b, " <=%s:%d", label, c)
	}
	fmt.Fprintln(w, b.String())
}

// cmdCompare compares two bundles: the outcome table of both runs, then
// per-stage wall-time movement and per-series solver counter movement with
// the worst regression of each kind named. The configuration and the
// deterministic outcome columns (flight.BenchRow.OutcomeDiff) decide the
// exit code: identical ones exit 0, and any that differ exit 1, each named
// with its movement; timing and solver-effort columns are report-only.
func cmdCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		return usage(stderr)
	}
	ra, ok := derive(args[0], stderr)
	if !ok {
		return exitCorrupt
	}
	rb, ok := derive(args[1], stderr)
	if !ok {
		return exitCorrupt
	}
	a, b := flight.BenchRowFrom(ra.Bundle), flight.BenchRowFrom(rb.Bundle)

	ot := report.New(fmt.Sprintf("Outcomes: %s vs %s", args[0], args[1]), "Metric", "A", "B", "Delta")
	num := func(name string, va, vb float64) { ot.AddRow(name, va, vb, vb-va) }
	ot.AddRow("benchmark", a.Benchmark, b.Benchmark, "")
	ot.AddRow("config", a.ConfigString(), b.ConfigString(), "")
	ot.AddRow("recorded", a.RecordedAt, b.RecordedAt, "")
	ot.AddRow("commit", orDash(a.GitCommit), orDash(b.GitCommit), "")
	num("trials", float64(a.Trials), float64(b.Trials))
	num("avg iterations", a.AvgIterations, b.AvgIterations)
	num("avg queries", a.AvgQueries, b.AvgQueries)
	num("avg candidates", a.AvgCandidates, b.AvgCandidates)
	num("avg seconds", a.AvgSeconds, b.AvgSeconds)
	num("total conflicts", float64(a.TotalConflicts), float64(b.TotalConflicts))
	num("total propagations", float64(a.TotalPropagations), float64(b.TotalPropagations))
	ot.AddRow("broken", a.Broken, b.Broken, "")
	ot.Render(stdout)

	d := anatomy.Compare(ra, rb)
	fmt.Fprintln(stdout)
	st := report.New("Stage wall-time movement", "Stage", "A seconds", "B seconds", "Delta")
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

	moved := a.OutcomeDiff(b)
	if len(moved) == 0 {
		fmt.Fprintln(stdout, "\nbundles match on deterministic columns")
		return exitOK
	}
	fmt.Fprintf(stdout, "\nbundles differ on %d deterministic column(s) (A -> B):\n", len(moved))
	for _, s := range moved {
		fmt.Fprintf(stdout, "  %s\n", s)
	}
	return exitMismatch
}
