package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"dynunlock/internal/anatomy"
	"dynunlock/internal/flight"
)

// firstTable returns the lines of the first pipe table in out: the header,
// the rule and the rows.
func firstTable(out string) string {
	var b strings.Builder
	for _, l := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(l, "|") {
			b.WriteString(l)
		} else if b.Len() > 0 {
			break
		}
	}
	return b.String()
}

// tableAfter returns the pipe-table lines that follow the title line in out.
func tableAfter(t *testing.T, out, title string) []string {
	t.Helper()
	_, rest, ok := strings.Cut(out, "\n"+title+"\n\n")
	if !ok {
		t.Fatalf("report has no table %q", title)
	}
	return strings.Split(strings.TrimSuffix(firstTable(rest), "\n"), "\n")
}

// TestReportCommand checks the report's frame: it opens on its title and
// the cross-run table, a corrupt bundle exits 3, and it takes one flag,
// -bench, so no arguments or a retired flag exit 2.
// TestReportOneSectionPerBundle pins the per-bundle parts,
// TestReportSelfContainedAndDeterministic the document's order and
// TestTrendsByteIdentical the Trends tables.
func TestReportCommand(t *testing.T) {
	code, out, errOut := runCLI(t, "report", goodBundle)
	if code != exitOK {
		t.Fatalf("report: exit %d\n%s", code, errOut)
	}
	if !strings.HasPrefix(out, "# Run report: 1 bundle(s)\n\nCross-run comparison\n\n| Bundle ") {
		t.Errorf("report does not open on its title and the cross-run table:\n%.300s", out)
	}
	if code, _, _ := runCLI(t, "report", corruptBundle(t)); code != exitCorrupt {
		t.Errorf("report corrupt: want exit %d", exitCorrupt)
	}
	for _, args := range [][]string{{"report"}, {"report", "-o", "r.md", bundleDir}, {"report", "-title", "T", bundleDir}} {
		if code, _, _ := runCLI(t, args...); code != exitUsage {
			t.Errorf("%v: want exit %d", args, exitUsage)
		}
	}
}

// TestReportOneSectionPerBundle renders the committed sweep: a parent
// directory expands to its child bundles in name order, and each bundle
// gets one cross-run row and exactly one "## " section, rendered by
// renderExplain.
func TestReportOneSectionPerBundle(t *testing.T) {
	code, out, errOut := runCLI(t, "report", bundleDir)
	if code != exitOK {
		t.Fatalf("report: exit %d\n%s", code, errOut)
	}
	entries, err := os.ReadDir(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	rows := tableAfter(t, out, "Cross-run comparison")
	if len(rows) != 2+len(entries) {
		t.Errorf("cross-run table has %d lines, want header, rule and one row per bundle (%d)", len(rows), len(entries))
	}
	if got := strings.Count(out, "\n## "); got != len(entries) {
		t.Errorf("%d sections, want one per bundle (%d)", got, len(entries))
	}
	for i, e := range entries {
		if got := strings.Count(out, "\n## "+e.Name()+"\n\nanatomy of "+filepath.Join(bundleDir, e.Name())+"\n"); got != 1 {
			t.Errorf("%d explain sections for %s, want 1", got, e.Name())
		}
		if i+2 < len(rows) && !strings.HasPrefix(rows[i+2], "| "+e.Name()+" ") {
			t.Errorf("cross-run row %d is not %s: %s", i, e.Name(), rows[i+2])
		}
	}
}

// TestReportSelfContainedAndDeterministic renders one bundle with the
// ledger twice: the renders are byte-identical valid UTF-8, the parts come
// in the documented order, the ledger table lists every ledger row, and
// the document is plain Markdown that links nothing outside itself.
func TestReportSelfContainedAndDeterministic(t *testing.T) {
	const ledgerPath = "../../BENCH_attack.json"
	code, out, errOut := runCLI(t, "report", "-bench", ledgerPath, goodBundle)
	if code != exitOK {
		t.Fatalf("report exit %d\n%s", code, errOut)
	}
	if _, again, _ := runCLI(t, "report", "-bench", ledgerPath, goodBundle); again != out {
		t.Error("report rendered differently across two runs on the same inputs")
	}
	if !utf8.ValidString(out) {
		t.Error("report is not valid UTF-8")
	}
	rest := out
	for _, part := range []string{
		"# Run report: 1 bundle(s)\n",
		"\nCross-run comparison\n",
		"\nBenchmark ledger (" + ledgerPath + ")\n",
		"\nTrends: seconds per stage\n",
		"\nTrends: solver work\n",
		"\nTrends: DIP difficulty\n",
		"\n## " + filepath.Base(goodBundle) + "\n",
	} {
		_, after, ok := strings.Cut(rest, part)
		if !ok {
			t.Fatalf("report lacks %q, or has it out of order", part)
		}
		rest = after
	}
	ledger, err := flight.ReadBenchFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if rows := tableAfter(t, out, "Benchmark ledger ("+ledgerPath+")"); len(rows) != 2+len(ledger.Rows) {
		t.Errorf("ledger table has %d lines, want %d rows", len(rows), len(ledger.Rows))
	}
	for _, forbid := range []string{"<!DOCTYPE", "<html", "<svg", "<script", "<link", "<img", "http://", "https://"} {
		if strings.Contains(out, forbid) {
			t.Errorf("report is not self-contained Markdown; found %q", forbid)
		}
	}
}

// TestTrendsByteIdentical renders the report twice over the same bundles
// and ledger: the two renders must be byte-identical, and each Trends table
// must hold one row per run.
func TestTrendsByteIdentical(t *testing.T) {
	const ledgerPath = "../../BENCH_attack.json"
	code, out1, errOut := runCLI(t, "report", "-bench", ledgerPath, bundleDir)
	if code != exitOK {
		t.Fatalf("report exit %d\n%s", code, errOut)
	}
	_, out2, _ := runCLI(t, "report", "-bench", ledgerPath, bundleDir)
	if out1 != out2 {
		t.Error("report rendered differently across two runs on the same bundles")
	}
	entries, err := os.ReadDir(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	for title, header := range map[string]string{
		"Trends: seconds per stage": "| Bundle        | unroll | encode | dip_loop | refine | verify | other  |",
		"Trends: solver work":       "| Bundle        | Conflicts | Learnt | Restarts |",
		"Trends: DIP difficulty":    "| Bundle        | DIPs | Mean  | Max   |",
	} {
		rows := tableAfter(t, out1, title)
		if rows[0] != header {
			t.Errorf("%s header %q, want %q", title, rows[0], header)
		}
		if len(rows) != 2+len(entries) {
			t.Errorf("%s has %d lines, want one row per run (%d)", title, len(rows), len(entries))
		}
	}
}

// TestReportNamesProfiles: a bundle's report section names the pprof
// captures its manifest lists, and a bundle without any has no such line.
func TestReportNamesProfiles(t *testing.T) {
	r, err := anatomy.FromDir(goodBundle)
	if err != nil {
		t.Fatal(err)
	}
	var without, with strings.Builder
	renderExplain(&without, r, 5)
	if strings.Contains(without.String(), "\nprofiles ") {
		t.Fatalf("a bundle without profiles lists some:\n%s", without.String())
	}
	r.Bundle.Manifest.Profiles = []string{"cpu.pprof", "heap.pprof"}
	renderExplain(&with, r, 5)
	if !strings.Contains(with.String(), "\nprofiles    [cpu.pprof heap.pprof]\n") {
		t.Fatalf("profiles not named:\n%s", with.String())
	}
}

// TestReportChecksPaperClaims pins the claims check: every committed
// bundle holds the paper's claims (exit 0), and a copy of a Table II
// bundle whose secret seed was removed from its candidates exits 1,
// naming the bundle, the trial and the claim, after printing its report.
func TestReportChecksPaperClaims(t *testing.T) {
	if code, _, errOut := runCLI(t, "report", bundleDir, "../../bench/bundles/paper128", "../../bench/bundles/affine"); code != exitOK {
		t.Fatalf("committed bundles: exit %d, want %d\n%s", code, exitOK, errOut)
	}
	dir := copiedBundle(t, func(name string, data []byte) []byte {
		if name != flight.ResultFile {
			return data
		}
		var doc flight.ResultDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		tr := &doc.Trials[1]
		tr.SeedCandidates = slices.DeleteFunc(tr.SeedCandidates, func(s string) bool { return s == tr.SecretSeed })
		out, err := json.Marshal(&doc)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
	code, out, errOut := runCLI(t, "report", dir)
	if code != exitMismatch {
		t.Fatalf("secret removed: exit %d, want %d\n%s", code, exitMismatch, errOut)
	}
	if !strings.Contains(errOut, dir+" trial 1: claim 1: the secret seed is not among the 0 candidates") {
		t.Errorf("claim failure does not name the bundle, trial and claim:\n%s", errOut)
	}
	if strings.Contains(errOut, "trial 0") {
		t.Errorf("the untouched trial 0 was reported:\n%s", errOut)
	}
	if strings.Count(out, "\n## ") != 1 {
		t.Errorf("the report was not printed before the check:\n%.300s", out)
	}
}

// TestExperimentsTablesMatchBundles re-renders every generated region of
// EXPERIMENTS.md — the lines between "<!-- runs report ARGS -->" and
// "<!-- /runs report -->" — as the cross-run table `runs report ARGS`
// prints over the committed bundles, and fails on any difference.
func TestExperimentsTablesMatchBundles(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	regions := regexp.MustCompile(`(?s)<!-- runs report ([^\n]*?) -->\n(.*?)<!-- /runs report -->`).FindAllStringSubmatch(string(doc), -1)
	if len(regions) < 2 {
		t.Fatalf("EXPERIMENTS.md has %d generated regions, want the two Table II tables", len(regions))
	}
	for _, m := range regions {
		args := strings.Fields(m[1])
		for i, a := range args {
			if !strings.HasPrefix(a, "-") {
				args[i] = filepath.Join("../..", a)
			}
		}
		code, out, errOut := runCLI(t, append([]string{"report"}, args...)...)
		if code != exitOK {
			t.Errorf("runs report %s: exit %d\n%s", m[1], code, errOut)
			continue
		}
		if want := firstTable(out); m[2] != want {
			t.Errorf("EXPERIMENTS.md region %q is stale; runs report %s prints:\n%s", m[1], m[1], want)
		}
	}
}
