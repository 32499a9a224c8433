package dynunlock

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dynunlock/internal/core"
	"dynunlock/internal/flight"
	"dynunlock/internal/metrics"
)

func TestRunExperimentSmall(t *testing.T) {
	var log bytes.Buffer
	res, err := RunExperiment(ExperimentConfig{
		Benchmark: "s5378",
		KeyBits:   8,
		Policy:    PerCycle,
		Scale:     16,
		Trials:    3,
		SeedBase:  11,
		Log:       &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 3 {
		t.Fatalf("trials = %d", len(res.Trials))
	}
	if !res.AllSucceeded() {
		t.Fatalf("not all trials succeeded: %+v", res.Trials)
	}
	if res.AvgCandidates() < 1 {
		t.Fatal("no candidates")
	}
	if res.AvgIterations() <= 0 || res.AvgSeconds() <= 0 {
		t.Fatal("averages not recorded")
	}
	for _, tr := range res.Trials {
		if !tr.Converged || !tr.Verified || !tr.Exact {
			t.Fatalf("trial flags: %+v", tr)
		}
		if tr.Queries < tr.Iterations {
			t.Fatal("query accounting")
		}
	}
	if log.Len() == 0 {
		t.Fatal("log empty")
	}
	if res.Entry.FFs != 10 { // 160/16
		t.Fatalf("scaled entry FFs = %d", res.Entry.FFs)
	}
}

func TestRunExperimentUnknownBenchmark(t *testing.T) {
	if _, err := RunExperiment(ExperimentConfig{Benchmark: "s9999", KeyBits: 8}); err == nil {
		t.Fatal("want error")
	}
	if _, err := LockBenchmark("s9999", 8, PerCycle, 1); err == nil {
		t.Fatal("want error")
	}
}

func TestFacadeLockAndUnlock(t *testing.T) {
	design, err := LockBenchmark("b20", 8, PerCycle, 32)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := Fabricate(design, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Unlock(chip, core.Options{EnumerateLimit: 256})
	if err != nil {
		t.Fatal(err)
	}
	if !core.ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
		t.Fatal("facade attack failed")
	}
}

func TestExperimentResultEmptyAggregates(t *testing.T) {
	r := &ExperimentResult{}
	if r.AvgCandidates() != 0 || r.AllSucceeded() {
		t.Fatal("empty aggregates wrong")
	}
}

// TestMetricsJSONHoldsOnlyItsOwnSeries records two experiments into one
// registry under different label scopes — two key widths of one circuit,
// as a Table III sweep runs them — and checks that each bundle's
// metrics.json holds only its own series, whose conflict total equals its
// own result.json.
func TestMetricsJSONHoldsOnlyItsOwnSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.SetBuildInfo("goversion", "test")
	base := metrics.With(context.Background(), reg)
	dirs := map[string]string{}
	for _, keyBits := range []int{8, 12} {
		kb := strconv.Itoa(keyBits)
		dir := t.TempDir()
		rec, err := flight.Create(dir)
		if err != nil {
			t.Fatal(err)
		}
		ctx := metrics.WithLabels(base, "benchmark", "s5378", "key_bits", kb)
		_, err = RunExperimentCtx(ctx, ExperimentConfig{
			Benchmark: "s5378", KeyBits: keyBits, Policy: PerCycle, Scale: 16,
			Trials: 2, SeedBase: int64(keyBits), Recorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		dirs[kb] = dir
	}
	for kb, dir := range dirs {
		data, err := os.ReadFile(filepath.Join(dir, flight.MetricsFile))
		if err != nil {
			t.Fatal(err)
		}
		var snap map[string]any
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		var conflicts float64
		for key, v := range snap {
			if !strings.Contains(key, `key_bits="`+kb+`"`) {
				t.Errorf("k=%s metrics.json holds a foreign series %q", kb, key)
			}
			if strings.HasPrefix(key, metrics.MetricSatConflicts+"{") {
				conflicts += v.(float64)
			}
		}
		b, err := flight.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var recorded uint64
		for _, tr := range b.Result.Trials {
			recorded += tr.Solver.Conflicts
		}
		if recorded == 0 || uint64(conflicts) != recorded {
			t.Errorf("k=%s metrics.json sums %v conflicts, result.json records %d", kb, conflicts, recorded)
		}
	}
}
