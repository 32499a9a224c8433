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

// staleBundle copies goodBundle with its manifest rewritten to format 4,
// the last format before the one attack pipeline.
func staleBundle(t *testing.T) string {
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
			data = bytes.Replace(data, []byte(`"formatVersion": 5`), []byte(`"formatVersion": 4`), 1)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
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

	if code, out, _ := runCLI(t, "diff", goodBundle, goodBundle); code != exitOK {
		t.Errorf("diff self: exit %d, want %d\n%s", code, exitOK, out)
	}
	if code, out, _ := runCLI(t, "diff", goodBundle, otherBundle); code != exitMismatch {
		t.Errorf("diff distinct: exit %d, want %d\n%s", code, exitMismatch, out)
	}
	if code, _, _ := runCLI(t, "diff", goodBundle, bad); code != exitCorrupt {
		t.Errorf("diff corrupt: want exit %d", exitCorrupt)
	}
}

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
	for _, want := range []string{"<svg", "Rank / seed-space curve", "Cross-run comparison"} {
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
