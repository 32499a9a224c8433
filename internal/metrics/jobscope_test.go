package metrics

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"dynunlock/internal/stream"
)

// scoped returns the handle a run labeled with labelPairs gets below
// WithLabels(With(ctx, r), labelPairs...).
func scoped(r *Registry, labelPairs ...string) *Handle {
	return From(WithLabels(With(context.Background(), r), labelPairs...))
}

func TestRegistryLabeledViewsAndScopedReads(t *testing.T) {
	r := NewRegistry()
	j1 := scoped(r, "job", "j1")
	j2 := scoped(r, "job", "j2")
	j1.Counter(MetricAttackDIPs, "engine", "sequential").Add(3)
	j2.Counter(MetricAttackDIPs, "engine", "sequential").Add(5)
	r.Counter(MetricAttackDIPs, "engine", "sequential").Add(7) // unscoped

	if got, ok := r.sum(MetricAttackDIPs, j1.base); !ok || got != 3 {
		t.Fatalf("sum over j1's scope = %v,%v want 3,true", got, ok)
	}
	if got, ok := r.sum(MetricAttackDIPs, j2.base); !ok || got != 5 {
		t.Fatalf("sum over j2's scope = %v,%v want 5,true", got, ok)
	}
	if _, ok := r.sum(MetricAttackDIPs, []string{"job", "j3"}); ok {
		t.Fatal("sum over a scope with no series reported ok")
	}
	if got, _ := r.Sum(MetricAttackDIPs); got != 15 {
		t.Fatalf("unfiltered Sum = %v, want 15", got)
	}

	snap := r.Snapshot("job", "j1")
	if len(snap) != 1 {
		t.Fatalf("Snapshot j1 has %d series, want 1: %v", len(snap), snap)
	}
	for k, v := range snap {
		if !strings.Contains(k, `job="j1"`) || v.(float64) != 3 {
			t.Fatalf("scoped snapshot wrong series %q=%v", k, v)
		}
	}
	// A handle reads back its own scope.
	if !reflect.DeepEqual(j1.Snapshot(), snap) {
		t.Fatalf("j1 handle snapshot = %v, want %v", j1.Snapshot(), snap)
	}
	// Scoped histograms merge only matching children.
	bounds := []float64{0.1, 1, 10}
	j1.Histogram(MetricAttackDIPSolveSec, bounds).Observe(0.05)
	j2.Histogram(MetricAttackDIPSolveSec, bounds).Observe(5)
	if q := r.quantile(MetricAttackDIPSolveSec, 0.5, j2.base); q <= 1 {
		t.Fatalf("quantile over j2's scope = %v, want >1", q)
	}
	// Nil and empty-pair views degrade to unscoped behavior.
	var nr *Registry
	if scoped(nr, "job", "x") != nil {
		t.Fatal("labels without a registry should leave the nil handle")
	}
	if got := len(scoped(r).Snapshot()); got != len(r.Snapshot()) {
		t.Fatalf("unlabeled handle snapshot has %d series, want all %d", got, len(r.Snapshot()))
	}
	if got, ok := r.Sum(MetricAttackDIPs); !ok || got != 15 {
		t.Fatalf("Sum with no pairs = %v,%v want unfiltered 15,true", got, ok)
	}
}

// instrumenter is what a Registry and a Handle share: the three
// instrument constructors.
type instrumenter interface {
	Counter(name string, labelPairs ...string) *Counter
	Gauge(name string, labelPairs ...string) *Gauge
	Histogram(name string, bounds []float64, labelPairs ...string) *Histogram
}

func TestUnlabeledExpositionUnchangedByJobViews(t *testing.T) {
	// The zero-cost pin: instrumenting through a context handle with no
	// labels must be byte-identical to instrumenting the registry directly,
	// and the existence of labeled views elsewhere must not alter the
	// unlabeled series' rendering.
	build := func(via func(r *Registry) instrumenter) string {
		r := NewRegistry()
		h := via(r)
		h.Counter(MetricAttackDIPs, "engine", "sequential").Add(42)
		h.Gauge(MetricSatLearntDB, "instance", "i0").Set(9)
		h.Histogram(MetricAttackDIPSolveSec, []float64{0.1, 1}).Observe(0.5)
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	direct := build(func(r *Registry) instrumenter { return r })
	viaCtx := build(func(r *Registry) instrumenter { return scoped(r) })
	if direct != viaCtx {
		t.Fatalf("empty view exposition diverged:\n--- direct ---\n%s--- ctx ---\n%s", direct, viaCtx)
	}
	// Golden pin of the unlabeled rendering so any future scoping change
	// that touches the default path fails loudly.
	want := "# TYPE dynunlock_attack_dips_total counter\n" +
		"dynunlock_attack_dips_total{engine=\"sequential\"} 42\n"
	if !strings.Contains(direct, want) {
		t.Fatalf("unlabeled exposition drifted; want to contain:\n%s\ngot:\n%s", want, direct)
	}
	if strings.Contains(direct, "job=") {
		t.Fatalf("unlabeled exposition grew a job label:\n%s", direct)
	}
}

func TestUptimeAndGoroutinesGauges(t *testing.T) {
	r := NewRegistry()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	time.Sleep(10 * time.Millisecond) // let uptime become nonzero
	metricsBody := get("/metrics")
	for _, name := range []string{MetricProcessUptime, MetricGoroutinesBare, MetricGoroutines} {
		if !strings.Contains(metricsBody, name+" ") {
			t.Fatalf("/metrics missing %s:\n%s", name, metricsBody)
		}
	}
	if up, ok := r.Sum(MetricProcessUptime); !ok || up <= 0 {
		t.Fatalf("uptime gauge = %v,%v want > 0", up, ok)
	}
	if n, ok := r.Sum(MetricGoroutinesBare); !ok || n < 1 {
		t.Fatalf("goroutines gauge = %v,%v want >= 1", n, ok)
	}
	varsBody := get("/debug/vars")
	var doc struct {
		Dynunlock map[string]any `json:"dynunlock"`
	}
	if err := json.Unmarshal([]byte(varsBody), &doc); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := doc.Dynunlock[MetricProcessUptime]; !ok {
		t.Fatalf("/debug/vars missing %s", MetricProcessUptime)
	}
	if _, ok := doc.Dynunlock[MetricGoroutinesBare]; !ok {
		t.Fatalf("/debug/vars missing %s", MetricGoroutinesBare)
	}
}

func TestServerHandleAndHealthEndpoints(t *testing.T) {
	r := NewRegistry()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("/jobs", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "jobs here")
	}))
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/jobs"); code != http.StatusOK || body != "jobs here" {
		t.Fatalf("extended handler: %d %q", code, body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.HasPrefix(body, "ready") {
		t.Fatalf("/readyz before drain: %d %q", code, body)
	}
	srv.closeSSESubscribers() // begin draining without stopping the listener
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.HasPrefix(body, "draining") {
		t.Fatalf("/readyz during drain: %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain: %d, liveness must stay 200", code)
	}
}

func TestEventsJobFilterStreamsOnlyThatJob(t *testing.T) {
	r := NewRegistry()
	scoped(r, "job", "j1").Counter(MetricAttackDIPs, "engine", "sequential").Add(2)
	scoped(r, "job", "j2").Counter(MetricAttackDIPs, "engine", "sequential").Add(9)
	bus := stream.NewBus()
	srv, err := ServeBus("127.0.0.1:0", r, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp, dec := openEvents(t, ctx, base+"/events?job=j1")
	defer resp.Body.Close()

	hello := next(t, dec)
	if hello.Type != stream.TypeHello || hello.Job != "j1" || hello.Data["job"] != "j1" {
		t.Fatalf("filtered hello = %+v", hello)
	}
	snap := next(t, dec)
	if snap.Type != stream.TypeSnapshot || snap.Job != "j1" {
		t.Fatalf("filtered snapshot = %+v", snap)
	}
	for k := range snap.Data {
		if strings.Contains(k, "dynunlock_attack") && !strings.Contains(k, `job="j1"`) {
			t.Fatalf("filtered snapshot leaked foreign series %q", k)
		}
	}
	if _, ok := snap.Data[`dynunlock_attack_dips_total{engine="sequential",job="j1"}`]; !ok {
		t.Fatalf("filtered snapshot missing j1 series: %v", snap.Data)
	}

	// Interleave publishes from two job views plus an untagged one; only
	// j1's envelopes may arrive, with strictly increasing seq.
	j1, j2 := bus.WithJob("j1"), bus.WithJob("j2")
	j2.Publish(stream.TypeDIP, map[string]any{"iteration": 1})
	bus.Publish(stream.TypeDelta, map[string]any{"iterations": 0.0})
	j1.Publish(stream.TypeDIP, map[string]any{"iteration": 1})
	j1.Publish(stream.TypeResult, map[string]any{"scope": "experiment"})

	var seen []stream.Event
	for len(seen) < 2 {
		ev := next(t, dec)
		seen = append(seen, ev)
	}
	var lastSeq uint64
	for _, ev := range seen {
		if ev.Job != "j1" {
			t.Fatalf("filtered stream leaked job %q event %+v", ev.Job, ev)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("per-job seq not strictly increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
	}
	if seen[0].Type != stream.TypeDIP || seen[1].Type != stream.TypeResult {
		t.Fatalf("filtered events = %v, %v", seen[0].Type, seen[1].Type)
	}
}

func TestEventsJobFilterDrainSnapshotIsScoped(t *testing.T) {
	r := NewRegistry()
	scoped(r, "job", "j1").Counter(MetricAttackDIPs, "engine", "sequential").Add(4)
	scoped(r, "job", "j2").Counter(MetricAttackDIPs, "engine", "sequential").Add(6)
	bus := stream.NewBus()
	srv, err := ServeBus("127.0.0.1:0", r, bus)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp, dec := openEvents(t, ctx, base+"/events?job=j1")
	defer resp.Body.Close()
	next(t, dec) // hello
	next(t, dec) // connect snapshot

	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Shutdown(2 * time.Second)
	}()
	final := next(t, dec)
	if final.Type != stream.TypeSnapshot || final.Job != "j1" {
		t.Fatalf("drain frame = %+v, want scoped snapshot", final)
	}
	v, ok := final.Data[`dynunlock_attack_dips_total{engine="sequential",job="j1"}`]
	if !ok || v.(float64) != 4 {
		t.Fatalf("drain snapshot totals = %v,%v want exactly j1's 4", v, ok)
	}
	for k := range final.Data {
		if strings.Contains(k, `job="j2"`) {
			t.Fatalf("drain snapshot leaked j2 series %q", k)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after drain snapshot: %v, want EOF", err)
	}
	<-done
}

func TestSSEGapResendsFreshSnapshot(t *testing.T) {
	// The SSE half of the resume-ring wraparound guarantee: a client whose
	// Last-Event-ID predates the ring gets gap=true in hello AND a fresh
	// snapshot immediately after, so nothing is silently missing — the
	// snapshot re-establishes absolute totals.
	r := NewRegistry()
	ctr := r.Counter(MetricAttackDIPs, "engine", "sequential")
	bus := stream.NewBusSized(4, 4)
	srv, err := ServeBus("127.0.0.1:0", r, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	anchor := bus.Subscribe(0) // keeps seq numbering live
	defer anchor.Close()
	for i := 0; i < 20; i++ {
		ctr.Inc()
		bus.Publish(stream.TypeDIP, map[string]any{"iteration": i})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp, dec := openEvents(t, ctx, base+"/events?last-event-id=1")
	defer resp.Body.Close()
	hello := next(t, dec)
	if hello.Data["gap"] != true || hello.Data["resumed"] != false {
		t.Fatalf("hello after ring eviction = %v, want gap=true resumed=false", hello.Data)
	}
	snap := next(t, dec)
	if snap.Type != stream.TypeSnapshot {
		t.Fatalf("frame after gap hello = %q, want fresh snapshot", snap.Type)
	}
	if v := snap.Data[`dynunlock_attack_dips_total{engine="sequential"}`]; v.(float64) != 20 {
		t.Fatalf("fresh snapshot totals = %v, want absolute 20", v)
	}
	// The retained ring suffix still replays after the snapshot (oldest
	// surviving seq is 17 of 20 with ring capacity 4).
	ev := next(t, dec)
	if ev.Seq != 17 {
		t.Fatalf("first replayed event seq = %d, want 17", ev.Seq)
	}
}
