package metrics

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("hist count = %d, want 4", h.Count())
	}
	if h.Sum() != 105 {
		t.Fatalf("hist sum = %v, want 105", h.Sum())
	}
}

func TestSameNameReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "instance", "0")
	b := r.Counter("x_total", "instance", "0")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	other := r.Counter("x_total", "instance", "1")
	if a == other {
		t.Fatal("different labels must return distinct children")
	}
	// Label order must not matter.
	p := r.Counter("y_total", "a", "1", "b", "2")
	q := r.Counter("y_total", "b", "2", "a", "1")
	if p != q {
		t.Fatal("label order must not create distinct children")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on kind mismatch")
		}
	}()
	r.Gauge("z_total")
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("nope")
	c.Inc() // must not panic
	g := r.Gauge("nope")
	g.Set(1)
	h := r.Histogram("nope", []float64{1})
	h.Observe(1)
	if v, ok := r.Sum("nope"); ok || v != 0 {
		t.Fatal("nil registry Sum must report absence")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if From(context.Background()) != nil {
		t.Fatal("background context must carry no registry")
	}
}

func TestContextHandleAndLabels(t *testing.T) {
	r := NewRegistry()
	ctx := With(context.Background(), r)
	if From(ctx) != r {
		t.Fatal("registry missing from context")
	}
	From(ctx).Counter("tagged_total", "instance", "0").Add(7)
	snap := r.Snapshot()
	if v, ok := snap[`tagged_total{instance="0"}`]; !ok || v.(float64) != 7 {
		t.Fatalf("snapshot missing call-site-labelled series: %v", snap)
	}
	// A nested With replaces the scope; a nil registry leaves ctx as is.
	inner := NewRegistry()
	if From(With(ctx, inner)) != inner || From(With(ctx, nil)) != r {
		t.Fatal("With must install the innermost non-nil registry")
	}
	if From(With(context.Background(), nil)) != nil {
		t.Fatal("With(nil) must not install a registry")
	}
}

func TestSumAcrossChildren(t *testing.T) {
	r := NewRegistry()
	r.Counter("s_total", "instance", "0").Add(3)
	r.Counter("s_total", "instance", "1").Add(4)
	if v, ok := r.Sum("s_total"); !ok || v != 7 {
		t.Fatalf("Sum = %v,%v want 7,true", v, ok)
	}
}

// promLine matches one non-comment Prometheus text exposition line.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_+][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|Inf|NaN)$`)

// parseProm validates the exposition text line by line and returns the
// set of series names seen.
func parseProm(t *testing.T, text string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line does not parse as Prometheus exposition: %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		names[name] = true
	}
	return names
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricSatConflicts, "instance", "0").Add(42)
	r.SetHelp(MetricSatConflicts, "total CDCL conflicts")
	r.Gauge(MetricSatLearntDB, "instance", "0").Set(17)
	hist := r.Histogram(MetricAttackDIPSolveSec, ExpBuckets(0.001, 2, 4))
	hist.Observe(0.0005)
	hist.Observe(0.003)
	hist.Observe(9)
	r.Counter("odd_label_total", "msg", "a\"b\\c\nd").Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	names := parseProm(t, out)
	for _, want := range []string{
		MetricSatConflicts,
		MetricSatLearntDB,
		MetricAttackDIPSolveSec + "_bucket",
		MetricAttackDIPSolveSec + "_sum",
		MetricAttackDIPSolveSec + "_count",
	} {
		if !names[want] {
			t.Errorf("exposition missing series %s:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "# TYPE "+MetricAttackDIPSolveSec+" histogram") {
		t.Error("missing histogram TYPE header")
	}
	if !strings.Contains(out, "# HELP "+MetricSatConflicts+" total CDCL conflicts") {
		t.Error("missing HELP header")
	}
	if !strings.Contains(out, MetricSatConflicts+`{instance="0"} 42`) {
		t.Errorf("missing counter sample:\n%s", out)
	}
	// Cumulative buckets: 0.0005 <= 0.001; 0.003 <= 0.004; 9 -> +Inf.
	if !strings.Contains(out, `le="0.001"} 1`) || !strings.Contains(out, `le="+Inf"} 3`) {
		t.Errorf("bucket cumulation wrong:\n%s", out)
	}
	if !strings.Contains(out, MetricAttackDIPSolveSec+"_count 3") {
		t.Errorf("histogram count wrong:\n%s", out)
	}
}

func TestConcurrentInstrumentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst := strconv.Itoa(w % 2)
			c := r.Counter("conc_total", "instance", inst)
			g := r.Gauge("conc_gauge")
			h := r.Histogram("conc_hist", []float64{1, 10, 100})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 150))
				// Concurrent re-lookup races the family maps on purpose.
				r.Counter("conc_total", "instance", inst)
			}
		}()
	}
	wg.Wait()
	if v, _ := r.Sum("conc_total"); v != workers*perWorker {
		t.Fatalf("counter sum = %v, want %d", v, workers*perWorker)
	}
	if g := r.Gauge("conc_gauge").Value(); g != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", g, workers*perWorker)
	}
	if c := r.Histogram("conc_hist", []float64{1, 10, 100}).Count(); c != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", c, workers*perWorker)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	parseProm(t, sb.String())
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	if fmt.Sprint(b) != fmt.Sprint(want) {
		t.Fatalf("ExpBuckets = %v, want %v", b, want)
	}
}
