// Command runs inspects, validates, replays, compares, and reports on
// flight-recorder bundles (see internal/flight). It answers one question
// per command: what happened in one run (explain), what changed between
// two (compare), and how a set of runs compares (report).
//
// Usage:
//
//	runs validate <bundle>              check the bundle files and manifest schema
//	runs replay <bundle>                re-run the attack from the transcript
//	runs explain [-json] [-top N] <bundle>
//	                                    one run: summary, trials, and per-stage and
//	                                    per-DIP attribution
//	runs compare <bundleA> <bundleB>    two runs: outcome table, and which stage and
//	                                    solver series moved
//	runs report <bundle-or-dir>...      many runs: one Markdown report, and a check of
//	                                    the paper's claims on every trial
//	runs watch [-job ID] <addr>         follow a live run's /events feed in the terminal
//
// explain, compare and report all read bundles through one derivation,
// anatomy.Report (see internal/anatomy): wall time split across the
// Fig. 3 stages (rows sum exactly to the recorded wall time), solver
// counter totals (exactly the sum of result.json's per-trial snapshots),
// per-DIP counter deltas and difficulty scores, and the sampled LBD
// distribution of the run's closing metrics sample. Every table prints as
// an aligned Markdown pipe table (report.Table).
// explain prints the run's manifest summary and trial table above that
// attribution. compare prints both runs' outcome columns, then names the
// stage and solver series that regressed, instead of only reporting that
// something differs. The committed bundles are the repository's record of
// its results: a fresh recording is checked by comparing it with its
// committed counterpart.
//
// Exit codes are uniform across subcommands so scripts and CI can tell the
// failure classes apart:
//
//	0  success (validate: bundle ok; replay/compare: results match)
//	1  mismatch — replay diverged, compare found differing deterministic
//	   columns (benchmark, configuration, trials, average iterations,
//	   queries, candidates, broken), or a trial in a report breaks one of
//	   the paper's claims
//	2  usage error
//	3  corrupt or unreadable bundle or event stream (malformed JSON, failed
//	   schema validation, missing files, a bundle format older than 5)
//
// replay is the post-mortem tool: it rebuilds the locked design from the
// manifest, serves every oracle query from oracle.jsonl (no chip
// simulation), and compares the re-derived result to result.json. For
// sequentially recorded bundles the comparison is exact — any diff means
// the attack code changed behavior since the recording.
//
// report renders one or more bundles (a directory of bundles expands to its
// sorted children) as one Markdown document on stdout: the cross-run table,
// Trends tables with one row per run
// (per-stage seconds, solver work, DIP difficulty), and one "## bundle"
// section per bundle as explain prints it. The output is deterministic:
// the same bundles render byte-identically, and EXPERIMENTS.md embeds the
// cross-run tables of two reports. After printing, report holds every trial
// to the paper's claims and exits 1, naming the bundle, trial and claim,
// when one fails: the trial did not succeed, its secret seed is not among
// its candidates, they are not verified, an exact set does not hold
// 2^(keyBits − rank) seeds, or it took more than 17 iterations (27 above
// 128 key bits).
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"dynunlock/internal/flight"
	"dynunlock/internal/report"
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
	case "validate":
		return cmdValidate(rest, stdout, stderr)
	case "replay":
		return cmdReplay(rest, stdout, stderr)
	case "explain":
		return cmdExplain(rest, stdout, stderr)
	case "compare":
		return cmdCompare(rest, stdout, stderr)
	case "report":
		return cmdReport(rest, stdout, stderr)
	case "watch":
		return cmdWatch(rest, stdout, stderr)
	}
	return usage(stderr)
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage: runs <command> [args]

  validate <bundle>               validate bundle files and manifest schema
  replay <bundle>                 replay the attack offline
  explain [-json] [-top N] <bundle>
                                  one run: summary, trials, per-stage and per-DIP attribution
  compare <bundleA> <bundleB>     two runs: outcomes, and the stage and solver series that moved
  report <bundle-or-dir>...       many runs: one Markdown report with trends; checks
                                  the paper's claims on every trial
  watch [-job ID] <addr>          follow a live run's /events feed in the terminal
                                  (-job filters to one dynunlockd job and exits at its terminal state)

exit codes: 0 ok/match · 1 mismatch (replay divergence, compare mismatch on
deterministic columns or configuration, a report trial breaking a paper
claim) · 2 usage · 3 corrupt or unreadable bundle/event stream`)
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

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
