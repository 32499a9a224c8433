package metrics

import (
	"strings"
	"testing"
)

// TestQuantileFromBuckets pins the interpolation on hand-checkable counts:
// linear within the bucket holding the target rank, overflow clamped to
// the last finite bound, degenerate inputs returning 0.
func TestQuantileFromBuckets(t *testing.T) {
	bounds := []float64{1, 2, 4}
	cases := []struct {
		name   string
		counts []uint64
		q      float64
		want   float64
	}{
		{"median at first bucket edge", []uint64{2, 2, 0, 0}, 0.50, 1.0},
		{"interpolates inside second bucket", []uint64{2, 2, 0, 0}, 0.75, 1.5},
		{"first bucket interpolates from zero", []uint64{4, 0, 0, 0}, 0.50, 0.5},
		{"overflow clamps to last finite bound", []uint64{0, 0, 0, 4}, 0.99, 4.0},
		{"q clamped above", []uint64{2, 2, 0, 0}, 1.5, 2.0},
		{"q clamped below", []uint64{2, 2, 0, 0}, -1, 0.0},
		{"no observations", []uint64{0, 0, 0, 0}, 0.5, 0},
	}
	for _, c := range cases {
		if got := quantileFromBuckets(bounds, c.counts, c.q); got != c.want {
			t.Errorf("%s: quantile(%v) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
	if got := quantileFromBuckets(nil, nil, 0.5); got != 0 {
		t.Errorf("empty bounds: got %v, want 0", got)
	}
}

// TestHistogramQuantile exercises the live-histogram path end to end,
// including nil-safety.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", []float64{0.001, 0.01, 0.1, 1})
	for i := 0; i < 9; i++ {
		h.Observe(0.005) // second bucket (0.001, 0.01]
	}
	h.Observe(0.5) // fourth bucket (0.1, 1]
	p50 := h.Quantile(0.50)
	if p50 <= 0.001 || p50 > 0.01 {
		t.Errorf("p50 = %v, want inside the (0.001, 0.01] bucket", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 <= 0.1 || p99 > 1 {
		t.Errorf("p99 = %v, want inside the (0.1, 1] bucket", p99)
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %v, want 0", got)
	}
}

// TestQuantileOfMergesLabeledChildren checks the family-level estimate
// behind a run's sample merges per-bucket counts across the family's
// labeled children before interpolating.
func TestQuantileOfMergesLabeledChildren(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{1, 2, 4}
	a := r.Histogram("fam_seconds", bounds, "engine", "sequential")
	b := r.Histogram("fam_seconds", bounds, "engine", "other")
	// Child a: 2 samples in (0,1]; child b: 2 samples in (1,2]. Merged
	// median sits at the first bucket's upper edge.
	a.Observe(0.5)
	a.Observe(0.5)
	b.Observe(1.5)
	b.Observe(1.5)
	if got := r.quantile("fam_seconds", 0.5); got != 1.0 {
		t.Errorf("merged p50 = %v, want 1.0", got)
	}
	only := NewRegistry()
	ob := only.Histogram("fam_seconds", bounds, "engine", "other")
	ob.Observe(1.5)
	ob.Observe(1.5)
	if got := only.quantile("fam_seconds", 0.5); got != 1.5 {
		t.Errorf("p50 of child b alone = %v, want 1.5", got)
	}
	if got := r.quantile("absent", 0.5); got != 0 {
		t.Errorf("quantile of an absent family = %v, want 0", got)
	}
	r.Counter("a_counter").Add(1)
	if got := r.quantile("a_counter", 0.5); got != 0 {
		t.Errorf("quantile of a counter family = %v, want 0", got)
	}
}

// TestSnapshotCarriesPercentiles checks the snapshot's histogram objects
// include the estimated p50/p95/p99 alongside the raw buckets.
func TestSnapshotCarriesPercentiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("snap_seconds", []float64{1, 2, 4})
	h.Observe(1.5)
	snap := r.Snapshot()
	obj, ok := snap["snap_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot has no histogram object: %+v", snap)
	}
	for _, k := range []string{"p50", "p95", "p99"} {
		v, ok := obj[k].(float64)
		if !ok {
			t.Errorf("snapshot histogram missing %s: %+v", k, obj)
			continue
		}
		if v <= 1 || v > 2 {
			t.Errorf("%s = %v, want inside the (1, 2] bucket", k, v)
		}
	}
}

// TestProgressLineSolvePercentiles checks the run's sample, and the
// progress line rendered from it, gain the DIP solve-latency percentiles
// once a solve has been observed, and omit them before.
func TestProgressLineSolvePercentiles(t *testing.T) {
	r := NewRegistry()
	if line := ProgressLine(sampleOnce(r, nil)); strings.Contains(line, "solve_p50=") {
		t.Errorf("percentiles shown before any solve: %q", line)
	}

	h := r.Histogram(MetricAttackDIPSolveSec, ExpBuckets(0.001, 2, 17), "engine", "sequential")
	for i := 0; i < 10; i++ {
		h.Observe(0.003)
	}
	f := sampleOnce(r, nil)
	line := ProgressLine(f)
	for _, want := range []string{"solve_p50=", "p95=", "p99="} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line missing %q: %q", want, line)
		}
	}
	p50, ok := f["solve_p50_s"].(float64)
	if !ok || p50 <= 0.002 || p50 > 0.004 {
		t.Errorf("snapshot solve_p50_s = %v (ok=%v), want ~0.003 (inside its bucket)", f["solve_p50_s"], ok)
	}
	if _, ok := f["solve_p99_s"].(float64); !ok {
		t.Errorf("snapshot missing solve_p99_s: %+v", f)
	}
}
