package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	goodBundle  = "../../bench/bundles/table2/table2_s5378"
	otherBundle = "../../bench/bundles/table2/table2_b20"
	bundleDir   = "../../bench/bundles/table2"
)

// runCLI drives the command in-process and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// corruptBundle writes a directory whose manifest.json is not JSON.
func corruptBundle(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range []string{"manifest.json", "result.json", "oracle.jsonl", "dips.jsonl", "trace.jsonl"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// rewrittenBundle copies goodBundle with each old→new replacement applied
// once to its manifest.
func rewrittenBundle(t *testing.T, oldNew ...string) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(goodBundle)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(goodBundle, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == "manifest.json" {
			for i := 0; i+1 < len(oldNew); i += 2 {
				if !bytes.Contains(data, []byte(oldNew[i])) {
					t.Fatalf("manifest has no %s to rewrite", oldNew[i])
				}
				data = bytes.Replace(data, []byte(oldNew[i]), []byte(oldNew[i+1]), 1)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// staleBundle copies goodBundle with its manifest rewritten to format 4,
// the last format before the one attack pipeline.
func staleBundle(t *testing.T) string {
	return rewrittenBundle(t, `"formatVersion": 5`, `"formatVersion": 4`)
}

// TestExitCodes pins the documented contract: 0 ok, 1 mismatch, 2 usage,
// 3 corrupt/unreadable — so "the bundles differ" and "the bundle is
// damaged" are distinguishable to scripts without parsing output.
func TestExitCodes(t *testing.T) {
	if code, _, _ := runCLI(t); code != exitUsage {
		t.Errorf("no args: exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "frobnicate"); code != exitUsage {
		t.Errorf("unknown command: exit %d, want %d", code, exitUsage)
	}

	if code, out, errOut := runCLI(t, "validate", goodBundle); code != exitOK {
		t.Errorf("validate good: exit %d, want %d\n%s%s", code, exitOK, out, errOut)
	}
	bad := corruptBundle(t)
	if code, _, errOut := runCLI(t, "validate", bad); code != exitCorrupt {
		t.Errorf("validate corrupt: exit %d, want %d\n%s", code, exitCorrupt, errOut)
	} else if !strings.Contains(errOut, "runs:") {
		t.Errorf("validate corrupt: fault not reported: %q", errOut)
	}
	if code, _, _ := runCLI(t, "validate", filepath.Join(bad, "absent")); code != exitCorrupt {
		t.Errorf("validate missing: want exit %d", exitCorrupt)
	}
	// A pre-v5 bundle is refused, never replayed on the current pipeline.
	stale := staleBundle(t)
	for _, cmd := range []string{"validate", "replay"} {
		if code, _, errOut := runCLI(t, cmd, stale); code != exitCorrupt {
			t.Errorf("%s format-4 bundle: exit %d, want %d\n%s", cmd, code, exitCorrupt, errOut)
		} else if !strings.Contains(errOut, "formatVersion 4") || !strings.Contains(errOut, "re-record") {
			t.Errorf("%s format-4 bundle: refusal does not name the version: %q", cmd, errOut)
		}
	}

	// A manifest claiming a 2·10⁹-bit key passes the schema but not the
	// design rebuild: lock.Lock refuses the width before allocating for it.
	huge := rewrittenBundle(t, `"keyBits": 8`, `"keyBits": 2000000000`, `"polyN": 8`, `"polyN": 2000000000`)
	if code, _, errOut := runCLI(t, "validate", huge); code != exitCorrupt {
		t.Errorf("validate oversized key: exit %d, want %d\n%s", code, exitCorrupt, errOut)
	} else if !strings.Contains(errOut, "MaxKeyBits") {
		t.Errorf("validate oversized key: refusal does not name the bound: %q", errOut)
	}

	if code, out, _ := runCLI(t, "compare", goodBundle, goodBundle); code != exitOK {
		t.Errorf("compare self: exit %d, want %d\n%s", code, exitOK, out)
	}
	if code, out, _ := runCLI(t, "compare", goodBundle, otherBundle); code != exitMismatch {
		t.Errorf("compare distinct: exit %d, want %d\n%s", code, exitMismatch, out)
	}
	if code, _, _ := runCLI(t, "compare", goodBundle, bad); code != exitCorrupt {
		t.Errorf("compare corrupt: want exit %d", exitCorrupt)
	}

	// A negative -top is a usage error, not a panic in Hardest.
	if code, out, errOut := runCLI(t, "explain", "-top", "-1", goodBundle); code != exitUsage {
		t.Errorf("explain -top -1: exit %d, want %d\n%s%s", code, exitUsage, out, errOut)
	}

	// The commands folded into explain, compare and report are gone.
	for _, args := range [][]string{
		{"show", goodBundle}, {"diff", goodBundle, otherBundle}, {"trends", bundleDir},
	} {
		if code, _, _ := runCLI(t, args...); code != exitUsage {
			t.Errorf("%s: exit %d, want %d", args[0], code, exitUsage)
		}
	}
}

// TestReportCommand renders the committed sweep: every bundle gets a
// section and the page carries the cross-run charts. TestTrendsByteIdentical
// pins the Trends section and the byte-identical renders.
func TestReportCommand(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.html")
	code, _, errOut := runCLI(t, "report", "-o", out, bundleDir)
	if code != exitOK {
		t.Fatalf("report: exit %d\n%s", code, errOut)
	}
	html, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"<svg", "Rank / seed-space curve", "Cross-run comparison", `<h2 id="trends">Trends</h2>`,
	} {
		if !strings.Contains(string(html), want) {
			t.Errorf("report missing %q", want)
		}
	}
	// A parent directory expands to all child bundles.
	entries, err := os.ReadDir(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(html), `<td><a href="#bundle-`); got != len(entries) {
		t.Errorf("overview rows = %d, want one per bundle (%d)", got, len(entries))
	}
	if code, _, _ := runCLI(t, "report", "-o", filepath.Join(t.TempDir(), "r.html"), corruptBundle(t)); code != exitCorrupt {
		t.Errorf("report corrupt: want exit %d", exitCorrupt)
	}
	if code, _, _ := runCLI(t, "report"); code != exitUsage {
		t.Errorf("report no args: want exit %d", exitUsage)
	}
}
