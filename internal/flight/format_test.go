package flight_test

// Format checks for the committed bundles and for fresh recordings: every
// committed bundle is at the current format, every bundle holds exactly
// the five bundle files (plus the profiles its manifest lists), and a
// fresh recording's closing metrics sample cross-checks against the solver
// counters in result.json.

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dynunlock/internal/anatomy"
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

// checkBundleFiles requires dir to hold exactly the five bundle files plus
// the profiles its manifest lists.
func checkBundleFiles(t *testing.T, dir string, m flight.Manifest) {
	t.Helper()
	want := append([]string{flight.ManifestFile, flight.OracleFile, flight.DIPsFile,
		flight.TraceFile, flight.ResultFile}, m.Profiles...)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s holds %v, want exactly %v", dir, got, want)
	}
}

// TestCommittedBundlesAreV5 opens every committed bundle: all 21 (ten
// paper128, ten table2, one affine) are at the current format and hold
// exactly the five bundle files.
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
		checkBundleFiles(t, dir, b.Manifest)
	}
}

// TestFreshRecordingCarriesAnatomy records an experiment through the public
// facade and checks what the anatomy report reads from it: the bundle
// holds exactly the five files, and its closing metrics sample holds the
// run's own conflicts (those result.json records) and a sampled LBD
// distribution that the report attaches as its search telemetry.
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
			checkBundleFiles(t, dir, b.Manifest)
			r, err := anatomy.FromDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if r.Search == nil {
				t.Fatal("fresh recording's trace has no sampled LBD distribution")
			}
			if len(b.Result.Trials) != len(res.Trials) {
				t.Fatalf("result.json records %d trials, the run %d", len(b.Result.Trials), len(res.Trials))
			}
			var conflicts, learnt uint64
			for _, tr := range b.Result.Trials {
				conflicts += tr.Solver.Conflicts
				learnt += tr.Solver.Learnt
			}
			if got := uint64(r.Search.Conflicts); got != conflicts {
				t.Errorf("closing sample holds %d conflicts, result.json %d", got, conflicts)
			}
			// The hook samples one learnt clause in 16.
			if r.Search.LBDSamples == 0 || r.Search.LBDSamples > learnt {
				t.Errorf("%d LBD samples for %d learnt clauses", r.Search.LBDSamples, learnt)
			}
		})
	}
}
