package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dynunlock/internal/anatomy"
	"dynunlock/internal/flight"
	"dynunlock/internal/report"
)

// cmdReport renders one or more bundles into a single self-contained HTML
// report, each read through its anatomy report: cross-run tables, trends
// across the runs, and one section per bundle. Arguments are bundle
// directories or parents of bundles: a directory without a manifest.json
// expands to its immediate children that have one, in sorted order — so
// `runs report bench/bundles/table2` reports every committed condition of
// that sweep, and the trend charts index the runs in that order.
func cmdReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the HTML report to this file (default: stdout)")
	ledgerPath := fs.String("bench", "", "benchmark ledger for the ledger table and history chart (e.g. BENCH_attack.json)")
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
	if len(dirs) == 0 {
		fmt.Fprintln(stderr, "runs: no bundles found under the given paths")
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

	opts := report.HTMLOptions{Title: *title}
	if *ledgerPath != "" {
		ledger, err := flight.ReadBenchFile(*ledgerPath)
		if err != nil {
			fmt.Fprintf(stderr, "runs: %v\n", err)
			return exitCorrupt
		}
		opts.Ledger = ledger
		opts.LedgerPath = *ledgerPath
	}
	if *out != "" {
		opts.OutDir = filepath.Dir(*out)
	}

	var buf bytes.Buffer
	if err := report.WriteHTML(&buf, runs, opts); err != nil {
		fmt.Fprintf(stderr, "runs: %v\n", err)
		return exitCorrupt
	}
	if *out == "" {
		stdout.Write(buf.Bytes())
		return exitOK
	}
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintf(stderr, "runs: %v\n", err)
		return exitCorrupt
	}
	fmt.Fprintf(stderr, "runs: wrote %s (%d bundle(s), %d bytes)\n", *out, len(runs), buf.Len())
	return exitOK
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
