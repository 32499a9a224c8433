package flight_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynunlock/internal/flight"
)

// tamperedOracle copies the committed table2_s5378 bundle and applies edit
// to record idx of its oracle.jsonl, or to every record when idx < 0.
func tamperedOracle(t *testing.T, idx int, edit func(*flight.SessionRecord)) string {
	t.Helper()
	src := committedBundle("table2/table2_s5378")
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == flight.OracleFile {
			lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
			for i := range lines {
				if idx >= 0 && i != idx {
					continue
				}
				var rec flight.SessionRecord
				if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
					t.Fatal(err)
				}
				edit(&rec)
				b, err := json.Marshal(&rec)
				if err != nil {
					t.Fatal(err)
				}
				lines[i] = string(b)
			}
			data = []byte(strings.Join(lines, "\n") + "\n")
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// transcriptTamperings are the single-record oracle.jsonl damages both
// bundle readers must reject: a scan-out 5 bits short, a scan-out with a
// byte that is not a bit, and a PO vector one bit wider than the first
// record's.
var transcriptTamperings = map[string]func(*flight.SessionRecord){
	"short scanOut": func(r *flight.SessionRecord) { r.ScanOut = r.ScanOut[:len(r.ScanOut)-5] },
	"x in scanOut":  func(r *flight.SessionRecord) { r.ScanOut = "x" + r.ScanOut[1:] },
	"wide PO":       func(r *flight.SessionRecord) { r.POs[0] += "0" },
}

// TestOpenRejectsMalformedTranscript pins that a transcript record which
// does not fit the manifest is a corrupt bundle, not a replay divergence:
// Open and OpenPartial return a *BundleError wrapping ErrCorrupt that
// names oracle.jsonl and the record's line.
func TestOpenRejectsMalformedTranscript(t *testing.T) {
	const idx = 3
	for name, edit := range transcriptTamperings {
		dir := tamperedOracle(t, idx, edit)
		for _, open := range []struct {
			name string
			fn   func(string) (*flight.Bundle, error)
		}{{"Open", flight.Open}, {"OpenPartial", flight.OpenPartial}} {
			_, err := open.fn(dir)
			var be *flight.BundleError
			if !errors.As(err, &be) || !errors.Is(err, flight.ErrCorrupt) {
				t.Errorf("%s with %s: err = %v, want a *BundleError wrapping ErrCorrupt", open.name, name, err)
				continue
			}
			if filepath.Base(be.Path) != flight.OracleFile || be.Line != idx+1 {
				t.Errorf("%s with %s: error names %s:%d, want %s:%d", open.name, name, be.Path, be.Line, flight.OracleFile, idx+1)
			}
		}
	}
}

// TestReplayChipChecksTranscriptWidths widens every record's PO vector by
// one bit: the transcript is consistent with itself, so it opens, but its
// widths disagree with the rebuilt design, so ReplayChip and Replay
// refuse it as corrupt instead of replaying it.
func TestReplayChipChecksTranscriptWidths(t *testing.T) {
	b, err := flight.Open(tamperedOracle(t, -1, transcriptTamperings["wide PO"]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReplayChip(0); !errors.Is(err, flight.ErrCorrupt) {
		t.Fatalf("ReplayChip: err = %v, want ErrCorrupt", err)
	}
	if _, err := b.Replay(context.Background()); !errors.Is(err, flight.ErrCorrupt) {
		t.Fatalf("Replay: err = %v, want ErrCorrupt", err)
	}
}
