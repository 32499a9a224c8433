package dynunlock

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dynunlock/internal/bench"
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

// TestClosingSampleHoldsOnlyItsOwnSeries records two experiments through
// one two-worker sweep with a registry on its context — two key widths of
// one circuit, as a Table III sweep runs them — and checks that each
// bundle's closing metrics sample read only its own scope: its conflicts
// equal its own result.json, and its LBD distribution is one count per
// bucket, summing to its sample count.
func TestClosingSampleHoldsOnlyItsOwnSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.SetBuildInfo("goversion", "test")
	base := metrics.With(context.Background(), reg)
	dirs, err := bench.SweepCtx(base, 2, []int{8, 12}, func(ctx context.Context, _ int, keyBits int) (string, error) {
		dir := t.TempDir()
		rec, err := flight.Create(dir)
		if err != nil {
			return "", err
		}
		if _, err := RunExperimentCtx(ctx, ExperimentConfig{
			Benchmark: "s5378", KeyBits: keyBits, Policy: PerCycle, Scale: 16,
			Trials: 2, SeedBase: int64(keyBits), Recorder: rec,
		}); err != nil {
			return "", err
		}
		return dir, rec.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		checkClosingSample(t, dir)
	}
}

// checkClosingSample checks a bundle's closing metrics sample against its
// result.json: the conflicts agree, and the LBD distribution has one count
// per bucket and sums to its sample count.
func checkClosingSample(t *testing.T, dir string) {
	t.Helper()
	b, err := flight.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := flight.ReadTrace(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Closing
	if c == nil {
		t.Fatalf("%s: trace.jsonl holds no metrics sample", dir)
	}
	var recorded uint64
	for _, tr := range b.Result.Trials {
		recorded += tr.Solver.Conflicts
	}
	if recorded == 0 || uint64(c.Conflicts) != recorded {
		t.Errorf("%s: closing sample holds %v conflicts, result.json records %d", dir, c.Conflicts, recorded)
	}
	if len(c.LBDCounts) != len(metrics.LBDBuckets)+1 {
		t.Fatalf("%s: closing sample has %d LBD buckets, want %d", dir, len(c.LBDCounts), len(metrics.LBDBuckets)+1)
	}
	var n uint64
	for _, v := range c.LBDCounts {
		n += v
	}
	if n != c.LBDSamples || n == 0 {
		t.Errorf("%s: LBD buckets sum to %d, lbd_samples %d; want equal and nonzero", dir, n, c.LBDSamples)
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

// TestCommittedBundleMetricsAreScoped checks every committed bundle's
// closing metrics sample, the one copy of its metrics: it read the run's
// own scope (its conflicts equal the bundle's result.json) and carries the
// sampled LBD distribution.
func TestCommittedBundleMetricsAreScoped(t *testing.T) {
	for _, dir := range committedBundleDirs(t) {
		checkClosingSample(t, dir)
	}
}

// TestDIPEventsReadTheRunsScope records a two-trial run with a bus
// subscriber attached and checks each "dip" event against the bundle: its
// restarts equal the same DIP's cumulative restarts in dips.jsonl, and its
// lbd_samples count only its own trial, so each trial's last DIP event
// adds up to the closing sample (every trial closes on a unique key, so
// the miter searches no more after its last DIP).
func TestDIPEventsReadTheRunsScope(t *testing.T) {
	dir := t.TempDir()
	rec, err := flight.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	bus := stream.NewBusSized(4096, 4096)
	sub := bus.Subscribe(0)
	defer sub.Close()
	res, err := RunExperiment(ExperimentConfig{
		Benchmark: "s5378", KeyBits: 8, Policy: PerCycle, Scale: 16,
		Trials: 2, SeedBase: 11, Recorder: rec, Stream: bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	bus.Close()
	for _, tr := range res.Trials {
		if tr.Closed != string(core.CloseUnique) {
			t.Fatalf("trial closed %q, want %q", tr.Closed, core.CloseUnique)
		}
	}
	b, err := flight.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	restarts := map[[2]int]uint64{}
	for _, d := range b.DIPs {
		restarts[[2]int{d.Trial, d.Iteration}] = d.Solver.Restarts
	}
	lastSamples := map[int]uint64{}
	events := 0
	for {
		ev, ok, _ := sub.Next(nil, 0)
		if !ok {
			break
		}
		if ev.Type != stream.TypeDIP {
			continue
		}
		events++
		key := [2]int{ev.Data["trial"].(int), ev.Data["iteration"].(int)}
		want, ok := restarts[key]
		if !ok {
			t.Fatalf("dip event %v has no dips.jsonl record", key)
		}
		if got := ev.Data["restarts"].(uint64); got != want {
			t.Errorf("dip %v: event restarts %d, dips.jsonl %d", key, got, want)
		}
		samples := ev.Data["lbd_samples"].(uint64)
		if samples < lastSamples[key[0]] {
			t.Errorf("dip %v: lbd_samples fell from %d to %d", key, lastSamples[key[0]], samples)
		}
		lastSamples[key[0]] = samples
	}
	if events != len(b.DIPs) || len(lastSamples) != 2 {
		t.Fatalf("%d dip events over %d trials, dips.jsonl has %d records over 2", events, len(lastSamples), len(b.DIPs))
	}
	tr, err := flight.ReadTrace(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := lastSamples[0] + lastSamples[1]; tr.Closing == nil || got != tr.Closing.LBDSamples {
		t.Errorf("trials' last dip events hold %d LBD samples, closing sample %+v", got, tr.Closing)
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

// TestRunPublishesItsOwnSample runs two experiments at once through a
// two-worker sweep with one registry on its context, one bus subscriber, a
// trace collector and the -progress sink attached. Each run samples its
// own scope: it publishes at least one "delta" naming its benchmark, its
// last delta arrives before its experiment result and holds the run's own
// conflict total, the collector saw the same samples as "snapshot" trace
// events, and the progress sink printed each as one line. The caller's
// registry holds the sweep's series and no solver series: the sweep gave
// each run a registry of its own.
func TestRunPublishesItsOwnSample(t *testing.T) {
	reg := metrics.NewRegistry()
	base := metrics.With(context.Background(), reg)
	col := trace.NewCollector()
	var progress bytes.Buffer
	base = trace.With(trace.With(base, col), &metrics.ProgressSink{W: &progress})
	bus := stream.NewBusSized(4096, 4096)
	sub := bus.Subscribe(0)
	defer sub.Close()

	results, err := bench.SweepCtx(base, 2, []string{"s5378", "s13207"}, func(ctx context.Context, _ int, name string) (*ExperimentResult, error) {
		return RunExperimentCtx(ctx, ExperimentConfig{
			Benchmark: name, KeyBits: 8, Policy: PerCycle, Scale: 16,
			Trials: 2, SeedBase: 11, Stream: bus,
		})
	})
	bus.Close()
	if err != nil {
		t.Fatal(err)
	}
	for key := range reg.Snapshot() {
		if strings.HasPrefix(key, "dynunlock_sat_") {
			t.Errorf("caller's registry holds solver series %s; the sweep must give each run its own", key)
		}
	}
	if n, _ := reg.Sum(metrics.MetricSweepItems); n != 2 {
		t.Errorf("caller's registry counts %v sweep items, want 2", n)
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
		var conflicts uint64
		for _, tr := range res.Trials {
			conflicts += tr.Solver.Conflicts
		}
		if got := last["conflicts"].(float64); uint64(got) != conflicts {
			t.Errorf("%s: last delta holds %v conflicts, the run %d", name, got, conflicts)
		}
		if !reflect.DeepEqual(snapshots[name], deltas[name]) {
			t.Errorf("%s: collector saw snapshots %v, bus carried deltas %v", name, snapshots[name], deltas[name])
		}
	}
}
