package metrics

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynunlock/internal/trace"
)

// sampleOnce reads a registry once, a second after the sampler started,
// and returns the fields of that one "snapshot" event.
func sampleOnce(r *Registry, run map[string]any) map[string]any {
	t0 := time.Now()
	s := &sampler{r: r, run: run, lastT: t0}
	return s.sample(t0.Add(time.Second))
}

func TestProgressEmitsLineAndSnapshotEvent(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricAttackDIPs).Add(3)
	r.Counter(MetricSatConflicts).Add(1000)
	r.Counter(MetricSatPropagations).Add(50000)
	r.Gauge(MetricSatLearntDB).Set(77)
	r.Counter(MetricOracleCycles).Add(4242)

	col := trace.NewCollector()
	stop := StartSampling(r, trace.From(trace.With(context.Background(), col)),
		map[string]any{"benchmark": "s5378", "key_bits": 128})
	stop() // stop takes a closing sample even before the first tick
	stop() // idempotent

	evs := col.Events()
	if len(evs) != 1 || evs[0].Type != "snapshot" {
		t.Fatalf("want one snapshot event, got %+v", evs)
	}
	f := evs[0].Fields
	if f["iterations"].(float64) != 3 || f["conflicts"].(float64) != 1000 {
		t.Fatalf("snapshot fields wrong: %v", f)
	}
	if f["benchmark"] != "s5378" || f["key_bits"] != 128 {
		t.Fatalf("snapshot does not name its run: %v", f)
	}
	if f["rss_bytes"].(uint64) == 0 {
		t.Fatal("snapshot must sample RSS")
	}
	line := ProgressLine(f)
	for _, want := range []string{"progress: s5378 k=128", "iters=3", "conflicts=1.0k", "learnt=77", "cycles=4.2k", "rss="} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line missing %q: %q", want, line)
		}
	}
}

// TestProgressLineRates pins the rate fields: totals over the time since
// the previous sample of the same run.
func TestProgressLineRates(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricSatConflicts).Add(500)
	r.Counter(MetricSatPropagations).Add(25000)
	f := sampleOnce(r, nil)
	if f["conflicts_per_s"].(float64) != 500 || f["props_per_s"].(float64) != 25000 {
		t.Fatalf("rates over one second wrong: %v", f)
	}
	if line := ProgressLine(f); !strings.Contains(line, "conflicts=500 (500/s) props=25.0k (25.0k/s)") {
		t.Fatalf("progress line rates wrong: %q", line)
	}
}

func TestProgressTicks(t *testing.T) {
	r := NewRegistry()
	col := trace.NewCollector()
	stop := startSampling(r, trace.From(trace.With(context.Background(), col)), nil, time.Millisecond)
	for deadline := time.Now().Add(5 * time.Second); len(col.Events()) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no two ticks within 5s: %d events", len(col.Events()))
		}
	}
	stop()
	if n := len(col.Events()); n < 3 {
		t.Fatalf("want >= 2 ticks plus the closing sample, got %d events", n)
	}
}

func TestProgressNilSafety(t *testing.T) {
	r := NewRegistry()
	col := trace.NewCollector()
	// No registry, or no enabled tracer: nothing starts and stop is a no-op.
	StartSampling(nil, trace.From(trace.With(context.Background(), col)), nil)()
	StartSampling(r, nil, nil)()
	if n := len(col.Events()); n != 0 {
		t.Fatalf("a sampler without a registry emitted %d events", n)
	}
	// The -progress sink ignores every event but snapshots.
	var buf bytes.Buffer
	sink := &ProgressSink{W: &buf}
	sink.Emit(trace.Event{Type: "span_end", Span: "encode"})
	sink.Emit(trace.Event{Type: "experiment", Fields: map[string]any{"conflicts": 1.0}})
	if buf.Len() != 0 {
		t.Fatalf("progress sink printed a non-snapshot event: %q", buf.String())
	}
}

func TestProgressFlag(t *testing.T) {
	var f ProgressFlag
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.Var(&f, "progress", "")
	if err := fs.Parse([]string{"-progress"}); err != nil {
		t.Fatal(err)
	}
	if !f.On || f.JSON {
		t.Fatalf("bare -progress = %+v", f)
	}
	var buf bytes.Buffer
	f.Sink(&buf).Emit(trace.Event{Type: "snapshot", Fields: map[string]any{"iterations": 2.0}})
	if got := buf.String(); got != "progress: iters=2\n" {
		t.Fatalf("bare -progress sink printed %q", got)
	}
	// The cadence is the run's own: interval forms are usage errors.
	for _, bad := range []string{"250ms", "5s", "nonsense"} {
		if err := f.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
	if err := f.Set("false"); err != nil {
		t.Fatal(err)
	}
	if f.On || f.Sink(&buf) != nil {
		t.Fatalf("-progress=false left a sink: %+v", f)
	}
	if !f.IsBoolFlag() {
		t.Fatal("must be a bool flag")
	}
}

func TestReadRSS(t *testing.T) {
	// On Linux procfs is available; elsewhere the call must report
	// unavailability rather than a zero value.
	if rss, ok := ReadRSS(); ok && rss == 0 {
		t.Fatal("available RSS must be nonzero")
	}
}

func TestReadRSSFromDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Missing file: the non-Linux / restricted-procfs case.
	if _, ok := readRSSFrom(filepath.Join(dir, "absent")); ok {
		t.Fatal("missing statm must report unavailable")
	}
	// Truncated and malformed content must not be mistaken for data.
	if _, ok := readRSSFrom(write("short", "12345")); ok {
		t.Fatal("one-field statm must report unavailable")
	}
	if _, ok := readRSSFrom(write("garbled", "12345 notanumber 7")); ok {
		t.Fatal("non-numeric resident field must report unavailable")
	}
	// Well-formed content converts pages to bytes.
	rss, ok := readRSSFrom(write("good", "9999 123 45"))
	if !ok || rss != 123*uint64(os.Getpagesize()) {
		t.Fatalf("readRSSFrom = %d, %v; want %d pages in bytes", rss, ok, 123)
	}
}

// TestProgressOmitsRSSWhenUnavailable pins the degraded rendering: no
// "rss=" token in the line and no rss_bytes sample field. The rss
// presence branch is driven by ReadRSS, so this asserts both renderings
// stay consistent with its availability report.
func TestProgressOmitsRSSWhenUnavailable(t *testing.T) {
	f := sampleOnce(NewRegistry(), nil)
	_, avail := ReadRSS()
	gotLine := strings.Contains(ProgressLine(f), "rss=")
	_, gotField := f["rss_bytes"]
	if gotLine != avail || gotField != avail {
		t.Fatalf("rss availability %v but line-has-rss=%v field-has-rss=%v",
			avail, gotLine, gotField)
	}
}

// TestProgressSampleCarriesLBDDistribution pins the sample's search
// telemetry: the run's own learnt-LBD series as a count, a mean and one
// count per LBDBuckets bucket, absent until the series exists. Another
// run's registry does not reach it.
func TestProgressSampleCarriesLBDDistribution(t *testing.T) {
	j1, j2 := NewRegistry(), NewRegistry()
	s := &sampler{r: j1, lastT: time.Now()}
	if f := s.sample(time.Now()); f["lbd_counts"] != nil {
		t.Fatalf("sample carries LBD fields before the series exists: %v", f)
	}
	for _, lbd := range []float64{2, 7, 100} {
		j1.Histogram(MetricSatLearntLBD, LBDBuckets, "instance", "0").Observe(lbd)
	}
	j2.Histogram(MetricSatLearntLBD, LBDBuckets, "instance", "0").Observe(3)
	f := s.sample(time.Now())
	counts := f["lbd_counts"].([]uint64)
	if f["lbd_samples"].(uint64) != 3 || f["lbd_mean"].(float64) != 109.0/3 || len(counts) != len(LBDBuckets)+1 {
		t.Fatalf("j1 sample LBD fields = %v %v %v, want its own 3 samples of mean 109/3",
			f["lbd_samples"], f["lbd_mean"], counts)
	}
	// Bounds are {1,2,3,4,6,8,...}: 2 lands in bucket 1, 7 in bucket 5
	// (<=8), 100 in the overflow.
	if counts[1] != 1 || counts[5] != 1 || counts[len(LBDBuckets)] != 1 {
		t.Fatalf("bucket counts %v", counts)
	}
}

func TestHumanFormats(t *testing.T) {
	if got := humanCount(1234567); got != "1.2M" {
		t.Fatalf("humanCount = %q", got)
	}
	if got := humanBytes(3 << 20); got != "3.0MiB" {
		t.Fatalf("humanBytes = %q", got)
	}
}
