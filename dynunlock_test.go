package dynunlock

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dynunlock/internal/core"
	"dynunlock/internal/flight"
	"dynunlock/internal/metrics"
	"dynunlock/internal/stream"
	"dynunlock/internal/trace"
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

// committedBundleDirs lists the 21 committed bundles: the ten table2
// conditions, affine and the ten paper128 circuits.
func committedBundleDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	for _, pattern := range []string{"bench/bundles/table2/*", "bench/bundles/affine", "bench/bundles/paper128/*"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, m...)
	}
	if len(dirs) != 21 {
		t.Fatalf("found %d bundles, want the 10 table2 bundles, affine and the 10 paper128 bundles", len(dirs))
	}
	return dirs
}

// TestCommittedBundleMetricsAreScoped checks every committed bundle,
// recorded since runs write metrics.json from their own label scope: each
// metrics.json names only its own benchmark, holds no retired
// dynunlock_anatomy_* series, and sums to the conflicts its result.json
// records.
func TestCommittedBundleMetricsAreScoped(t *testing.T) {
	for _, dir := range committedBundleDirs(t) {
		b, err := flight.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, flight.MetricsFile))
		if err != nil {
			t.Fatal(err)
		}
		var snap map[string]any
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		own := `benchmark="` + b.Manifest.Benchmark + `"`
		var conflicts float64
		for key, v := range snap {
			if !strings.Contains(key, own) {
				t.Errorf("%s: metrics.json holds a series of another scope %q", dir, key)
			}
			if strings.HasPrefix(key, "dynunlock_anatomy_") {
				t.Errorf("%s: metrics.json holds the retired series %q", dir, key)
			}
			if strings.HasPrefix(key, metrics.MetricSatConflicts+"{") {
				conflicts += v.(float64)
			}
		}
		var recorded uint64
		for _, tr := range b.Result.Trials {
			recorded += tr.Solver.Conflicts
		}
		if recorded == 0 || uint64(conflicts) != recorded {
			t.Errorf("%s: metrics.json sums %v conflicts, result.json records %d", dir, conflicts, recorded)
		}
	}
}

// TestCommittedBundlesRecordClose checks how every committed trial's DIP
// loop closed: the table2 and paper128 bundles on a unique consistent key,
// the affine bundle (insight armed) analytically.
func TestCommittedBundlesRecordClose(t *testing.T) {
	for _, dir := range committedBundleDirs(t) {
		b, err := flight.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := string(core.CloseUnique)
		if b.Manifest.Analytic {
			want = string(core.CloseAnalytic)
		}
		for _, tr := range b.Result.Trials {
			if tr.Closed != want {
				t.Errorf("%s trial %d: closed %q, want %q", dir, tr.Trial, tr.Closed, want)
			}
		}
	}
}

// TestRunPublishesItsOwnSample runs two experiments at once on one
// registry, under different label scopes, with one bus subscriber, a
// trace collector and the -progress sink attached. Each run samples its
// own scope: it publishes at least one "delta" naming its benchmark, its
// last delta arrives before its experiment result and holds the run's own
// conflict total, the collector saw the same samples as "snapshot" trace
// events, and the progress sink printed each as one line.
func TestRunPublishesItsOwnSample(t *testing.T) {
	reg := metrics.NewRegistry()
	base := metrics.With(context.Background(), reg)
	col := trace.NewCollector()
	var progress bytes.Buffer
	base = trace.With(trace.With(base, col), &metrics.ProgressSink{W: &progress})
	bus := stream.NewBusSized(4096, 4096)
	sub := bus.Subscribe(0)
	defer sub.Close()

	benches := []string{"s5378", "s13207"}
	results := make([]*ExperimentResult, len(benches))
	errs := make([]error, len(benches))
	var wg sync.WaitGroup
	for i, name := range benches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := metrics.WithLabels(base, "benchmark", name)
			results[i], errs[i] = RunExperimentCtx(ctx, ExperimentConfig{
				Benchmark: name, KeyBits: 8, Policy: PerCycle, Scale: 16,
				Trials: 2, SeedBase: 11, Stream: bus,
			})
		}()
	}
	wg.Wait()
	bus.Close()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	deltas := map[string][]map[string]any{}
	lastDelta := map[string]int{}
	resultAt := map[string]int{}
	for i := 0; ; i++ {
		ev, ok, _ := sub.Next(nil, 0)
		if !ok {
			break
		}
		name, _ := ev.Data["benchmark"].(string)
		switch {
		case ev.Type == stream.TypeDelta:
			deltas[name] = append(deltas[name], ev.Data)
			lastDelta[name] = i
		case ev.Type == stream.TypeResult && ev.Data["scope"] == "experiment":
			resultAt[name] = i
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; size the test ring above the workload", sub.Dropped())
	}
	snapshots := map[string][]map[string]any{}
	var lines []string
	for _, ev := range col.Events() {
		if ev.Type == "snapshot" {
			name, _ := ev.Fields["benchmark"].(string)
			snapshots[name] = append(snapshots[name], ev.Fields)
			lines = append(lines, metrics.ProgressLine(ev.Fields)+"\n")
		}
	}
	if got, want := progress.String(), strings.Join(lines, ""); got != want {
		t.Errorf("progress sink printed\n%s\nwant one line per sample\n%s", got, want)
	}
	for _, res := range results {
		name := res.Entry.Name
		if len(deltas[name]) == 0 {
			t.Errorf("%s published no delta naming it", name)
			continue
		}
		at, ok := resultAt[name]
		if !ok || lastDelta[name] > at {
			t.Errorf("%s: last delta at event %d, experiment result at %d (present %v); want the delta first",
				name, lastDelta[name], at, ok)
		}
		last := deltas[name][len(deltas[name])-1]
		if got := last["conflicts"].(float64); uint64(got) != res.TotalConflicts() {
			t.Errorf("%s: last delta holds %v conflicts, the run %d", name, got, res.TotalConflicts())
		}
		if !reflect.DeepEqual(snapshots[name], deltas[name]) {
			t.Errorf("%s: collector saw snapshots %v, bus carried deltas %v", name, snapshots[name], deltas[name])
		}
	}
}
