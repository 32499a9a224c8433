package flight_test

// Search-path gate: a recorded bundle fixes not only what the
// attack found but how the solver searched for it. Replaying one must
// reproduce every solver counter in result.json, so a solver change that
// alters a decision, the propagation order or a tie-break fails here even
// when it still recovers the same seeds.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynunlock/internal/flight"
)

func committedBundle(rel string) string {
	return filepath.Join("..", "..", "bench", "bundles", filepath.FromSlash(rel))
}

// TestCommittedBundlesReplaySearch replays one committed bundle of each
// set and requires an empty Compare, solver counters included.
func TestCommittedBundlesReplaySearch(t *testing.T) {
	for _, rel := range []string{
		"table2/table2_s5378", // scale 16, 8-bit keys, two trials
		"affine",              // one DIP, closed unique, on the affine core
		"paper128/s5378",      // paper scale, 128-bit keys
		"paper128/s13207",
	} {
		t.Run(rel, func(t *testing.T) {
			b, err := flight.Open(committedBundle(rel))
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := b.Replay(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if diffs := flight.Compare(&b.Result, replayed); len(diffs) != 0 {
				t.Fatalf("replay diverged from the committed recording:\n  %s", strings.Join(diffs, "\n  "))
			}
		})
	}
}

// replayTampered copies a committed bundle, raises trial 0's recorded
// conflict count, rank and encode counters by one and flips its verified
// flag, and replays the copy.
func replayTampered(t *testing.T) (*flight.Bundle, *flight.ResultDoc) {
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
		if e.Name() == flight.ResultFile {
			var doc flight.ResultDoc
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			tr := &doc.Trials[0]
			tr.Solver.Conflicts++
			tr.Rank++
			tr.EncodeVars++
			tr.EncodeClauses++
			tr.Verified = !tr.Verified
			if data, err = json.Marshal(&doc); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := flight.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := b.Replay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return b, replayed
}

// TestCompareNamesMovedSolverCounter requires Compare to name every
// tampered field: the solver counter, and the verified flag, rank and
// encode counters a replay must reproduce too.
func TestCompareNamesMovedSolverCounter(t *testing.T) {
	b, replayed := replayTampered(t)
	rec := b.Result.Trials[0]
	want := []string{
		fmt.Sprintf("trial 0: verified %v != %v", rec.Verified, !rec.Verified),
		fmt.Sprintf("trial 0: rank %d != %d", rec.Rank, rec.Rank-1),
		fmt.Sprintf("trial 0: encodeVars %d != %d", rec.EncodeVars, rec.EncodeVars-1),
		fmt.Sprintf("trial 0: encodeClauses %d != %d", rec.EncodeClauses, rec.EncodeClauses-1),
		fmt.Sprintf("trial 0: solver conflicts %d != %d", rec.Solver.Conflicts, rec.Solver.Conflicts-1),
	}
	if diffs := flight.Compare(&b.Result, replayed); strings.Join(diffs, "\n") != strings.Join(want, "\n") {
		t.Fatalf("Compare = %q, want %q", diffs, want)
	}
}
