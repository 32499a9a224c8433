package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"dynunlock/internal/anatomy"
	"dynunlock/internal/flight"
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
// table and any stop reason, then the attribution — the wall-time split
// across the Fig. 3 stages (rows sum exactly to the recorded
// elapsedSeconds), the solver counter totals (exactly the sum of
// result.json's per-trial snapshots), the hottest stage, the hardest DIP
// iterations by difficulty score, and — when the bundle carries live
// search telemetry (anatomy.json) — the sampled LBD distribution and
// restart counts. A bundle recorded with the capture off explains from its
// trace/DIP transcript alone. -json emits the anatomy report as
// machine-readable JSON for CI assertions.
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

// renderExplain writes the deterministic text report.
func renderExplain(w io.Writer, r *anatomy.Report, top int) {
	b := r.Bundle
	m := &b.Manifest
	fmt.Fprintf(w, "anatomy of %s\n", r.Dir)
	fmt.Fprintf(w, "recorded    %s by %s (%s %s/%s, %d CPU, host %s)\n",
		m.CreatedAt, orDash(m.Tool), m.Fingerprint.GoVersion,
		m.Fingerprint.GOOS, m.Fingerprint.GOARCH, m.Fingerprint.NumCPU, orDash(m.Fingerprint.Host))
	if m.Fingerprint.GitCommit != "" {
		fmt.Fprintf(w, "commit      %s\n", m.Fingerprint.GitCommit)
	}
	fmt.Fprintf(w, "experiment  %s scale=%d keybits=%d policy=%s mode=%s seed=%d analytic=%v\n",
		m.Benchmark, m.Scale, m.Lock.KeyBits, m.Lock.Policy, m.Mode, m.SeedBase, m.Analytic)
	if len(m.Profiles) > 0 {
		fmt.Fprintf(w, "profiles    %v\n", m.Profiles)
	}
	fmt.Fprintf(w, "transcript  %d sessions, %d DIP iterations\n", len(b.Sessions), len(b.DIPs))
	fmt.Fprintf(w, "wall time   %.3fs\n\n", r.TotalSeconds)

	tt := report.New(fmt.Sprintf("Trials (%d recorded)", len(b.Result.Trials)),
		"Trial", "Candidates", "Iterations", "Queries", "Seconds", "Conflicts", "Enc vars", "Enc clauses", "Success")
	for _, t := range b.Result.Trials {
		tt.AddRow(t.Trial, len(t.SeedCandidates), t.Iterations, t.Queries,
			t.Seconds, t.Solver.Conflicts, t.EncodeVars, t.EncodeClauses, t.Success)
	}
	tt.Render(w)
	if b.Result.Stopped {
		fmt.Fprintf(w, "\nstopped early: %s\n", b.Result.StopReason)
	}

	fmt.Fprintln(w)
	report.StageTable("Wall-time attribution (stages sum to the recorded wall time)", r.Stages).Render(w)

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

// cmdCompare compares two bundles: the outcome table of both runs, then
// per-stage wall-time movement and per-series solver counter movement with
// the worst regression of each kind named. The deterministic outcome
// columns (flight.BenchRow.OutcomeDiff) decide the exit code: identical
// outcomes exit 0, differing ones exit 1; timing and solver-effort columns
// are report-only.
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

	outcomeTable(fmt.Sprintf("Outcomes: %s vs %s", args[0], args[1]), "A", "B", a, b).Render(stdout)

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

	return outcomeVerdict(stdout, "bundles", "A -> B", a, b)
}
