package flight_test

// Format checks for the committed bundles and for fresh recordings: every
// committed bundle is at the current format, and a fresh recording carries
// a live-captured anatomy.json whose telemetry cross-checks against the
// solver counters in result.json.

import (
	"os"
	"path/filepath"
	"testing"

	"dynunlock/internal/flight"
)

// committedBundleDirs walks bench/bundles for every directory holding a
// manifest.json (bundles may be nested one level under suite directories).
func committedBundleDirs(t *testing.T) []string {
	t.Helper()
	root := filepath.Join("..", "..", "bench", "bundles")
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && d.Name() == flight.ManifestFile {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no committed bundles found under bench/bundles")
	}
	return dirs
}

// TestCommittedBundlesAreV5 opens every committed bundle: all 21 (ten
// paper128, ten table2, one affine) are at the current format, were
// recorded with the anatomy capture, and carry a readable anatomy.json.
func TestCommittedBundlesAreV5(t *testing.T) {
	dirs := committedBundleDirs(t)
	if len(dirs) != 21 {
		t.Errorf("%d committed bundles, want 21", len(dirs))
	}
	for _, dir := range dirs {
		b, err := flight.Open(dir)
		if err != nil {
			t.Errorf("%s: open: %v", dir, err)
			continue
		}
		if v := b.Manifest.FormatVersion; v != 5 {
			t.Errorf("%s: formatVersion %d, want 5", dir, v)
		}
		if !b.Manifest.Anatomy {
			t.Errorf("%s: manifest does not declare anatomy telemetry", dir)
		}
		if doc, err := flight.ReadAnatomy(dir); err != nil || doc == nil {
			t.Errorf("%s: ReadAnatomy = %v, %v; want a document", dir, doc, err)
		}
	}
}

// TestFreshRecordingCarriesAnatomy records an experiment through the public
// facade (the recorder implies the live capture) and checks the v4 surface:
// the manifest declares the telemetry, anatomy.json reads back, and its
// restart counts exactly match the solver counters in result.json — the
// capture hook and sat.Stats count the same events.
func TestFreshRecordingCarriesAnatomy(t *testing.T) {
	for name, cfg := range roundTripConfigs() {
		t.Run(name, func(t *testing.T) {
			dir, res := recordExperiment(t, cfg)
			b, err := flight.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if b.Manifest.FormatVersion != flight.FormatVersion {
				t.Errorf("fresh recording formatVersion %d, want %d",
					b.Manifest.FormatVersion, flight.FormatVersion)
			}
			if !b.Manifest.Anatomy {
				t.Error("fresh recording does not declare anatomy telemetry")
			}
			doc, err := flight.ReadAnatomy(dir)
			if err != nil {
				t.Fatal(err)
			}
			if doc == nil {
				t.Fatal("fresh recording has no anatomy.json")
			}
			if doc.FormatVersion != flight.AnatomyDocVersion {
				t.Errorf("anatomy doc version %d, want %d", doc.FormatVersion, flight.AnatomyDocVersion)
			}
			if len(doc.Trials) != len(res.Trials) {
				t.Fatalf("anatomy records %d trials, result has %d", len(doc.Trials), len(res.Trials))
			}
			for i, ta := range doc.Trials {
				tr := b.Result.Trials[i]
				if ta.Trial != tr.Trial {
					t.Errorf("anatomy trial %d numbered %d, result says %d", i, ta.Trial, tr.Trial)
				}
				// The restart callback fires exactly where Stats.Restarts
				// increments, so the live capture must agree with the
				// recorded counter.
				if ta.Restarts != tr.Solver.Restarts {
					t.Errorf("trial %d: anatomy restarts %d, result.json solver restarts %d",
						ta.Trial, ta.Restarts, tr.Solver.Restarts)
				}
				if ta.LBD.Samples > tr.Solver.Learnt {
					t.Errorf("trial %d: %d LBD samples exceed %d learnt clauses",
						ta.Trial, ta.LBD.Samples, tr.Solver.Learnt)
				}
				// Per-DIP segments cover the DIP loop; their totals are
				// bounded by the trial-wide accumulators.
				var segRestarts, segSamples uint64
				for _, d := range ta.DIPs {
					segRestarts += d.Restarts
					segSamples += d.LBD.Samples
				}
				if segRestarts > ta.Restarts || segSamples > ta.LBD.Samples {
					t.Errorf("trial %d: DIP segments (%d restarts, %d samples) exceed trial totals (%d, %d)",
						ta.Trial, segRestarts, segSamples, ta.Restarts, ta.LBD.Samples)
				}
				if len(ta.DIPs) > tr.Iterations {
					t.Errorf("trial %d: %d DIP segments but only %d iterations",
						ta.Trial, len(ta.DIPs), tr.Iterations)
				}
			}
		})
	}
}
