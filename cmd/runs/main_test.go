package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynunlock/internal/flight"
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

// copiedBundle copies goodBundle, passing each file's content through
// rewrite.
func copiedBundle(t *testing.T, rewrite func(name string, data []byte) []byte) string {
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
		if err := os.WriteFile(filepath.Join(dir, e.Name()), rewrite(e.Name(), data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// rewrittenBundle copies goodBundle with each old→new replacement applied
// once to its manifest.
func rewrittenBundle(t *testing.T, oldNew ...string) string {
	t.Helper()
	return copiedBundle(t, func(name string, data []byte) []byte {
		if name != "manifest.json" {
			return data
		}
		for i := 0; i+1 < len(oldNew); i += 2 {
			if !bytes.Contains(data, []byte(oldNew[i])) {
				t.Fatalf("manifest has no %s to rewrite", oldNew[i])
			}
			data = bytes.Replace(data, []byte(oldNew[i]), []byte(oldNew[i+1]), 1)
		}
		return data
	})
}

// tamperedTranscript copies goodBundle with the fourth record of its
// oracle.jsonl rewritten by edit.
func tamperedTranscript(t *testing.T, edit func(*flight.SessionRecord)) string {
	t.Helper()
	return copiedBundle(t, func(name string, data []byte) []byte {
		if name != flight.OracleFile {
			return data
		}
		lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
		var rec flight.SessionRecord
		if err := json.Unmarshal(lines[3], &rec); err != nil {
			t.Fatal(err)
		}
		edit(&rec)
		line, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		lines[3] = line
		return append(bytes.Join(lines, []byte("\n")), '\n')
	})
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

	// A manifest claiming a 2·10⁹-bit key fails the manifest check, which
	// bounds the width by lock.MaxKeyBits before the transcript is read or
	// anything is allocated for it.
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

	// The commands folded into explain, compare and report are gone, and
	// so are the ledger's bench and baseline: the committed bundles are
	// the record, and compare checks a fresh bundle against its
	// counterpart.
	for _, args := range [][]string{
		{"show", goodBundle}, {"diff", goodBundle, otherBundle}, {"trends", bundleDir},
		{"bench", goodBundle}, {"baseline", goodBundle},
	} {
		if code, _, _ := runCLI(t, args...); code != exitUsage {
			t.Errorf("%s: exit %d, want %d", args[0], code, exitUsage)
		}
	}
}

// TestCompareFailsOnConfig compares the committed table2 bundle with
// copies whose manifest differs only in configuration: every outcome
// column matches, yet compare exits 1 and names the config that moved.
func TestCompareFailsOnConfig(t *testing.T) {
	for name, oldNew := range map[string][2]string{
		"mode":  {`"mode": "linear",`, `"mode": "direct",`},
		"scale": {`"scale": 16,`, `"scale": 8,`},
	} {
		dir := rewrittenBundle(t, oldNew[0], oldNew[1])
		code, out, errOut := runCLI(t, "compare", goodBundle, dir)
		if code != exitMismatch {
			t.Errorf("%s: compare exit %d, want %d\n%s%s", name, code, exitMismatch, out, errOut)
			continue
		}
		if !strings.Contains(out, "bundles differ on 1 deterministic column(s) (A -> B):\n  config: scale=16 k=8 per-cycle linear -> ") {
			t.Errorf("%s: compare does not name the config alone:\n%s", name, out)
		}
	}
}

// TestTamperedTranscriptExitsCorrupt damages one oracle.jsonl record of
// the committed bundle three ways — a scan-out 5 bits short, a scan-out
// with an 'x', a PO one bit wide too many — and requires validate and
// replay to report a corrupt bundle (exit 3), not a replay mismatch.
func TestTamperedTranscriptExitsCorrupt(t *testing.T) {
	for name, edit := range map[string]func(*flight.SessionRecord){
		"short scanOut": func(r *flight.SessionRecord) { r.ScanOut = r.ScanOut[:len(r.ScanOut)-5] },
		"x in scanOut":  func(r *flight.SessionRecord) { r.ScanOut = "x" + r.ScanOut[1:] },
		"wide PO":       func(r *flight.SessionRecord) { r.POs[0] += "0" },
	} {
		dir := tamperedTranscript(t, edit)
		for _, cmd := range []string{"validate", "replay"} {
			if code, out, errOut := runCLI(t, cmd, dir); code != exitCorrupt {
				t.Errorf("%s with %s: exit %d, want %d\n%s%s", cmd, name, code, exitCorrupt, out, errOut)
			} else if !strings.Contains(errOut, "oracle.jsonl:4") {
				t.Errorf("%s with %s: error does not name the record: %q", cmd, name, errOut)
			}
		}
	}
}
