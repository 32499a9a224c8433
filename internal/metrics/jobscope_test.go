package metrics

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dynunlock/internal/stream"
)

func TestUptimeAndGoroutinesGauges(t *testing.T) {
	r := NewRegistry()
	srv, err := ServeBus("127.0.0.1:0", r, nil)
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
}

func TestServerHandleAndHealthEndpoints(t *testing.T) {
	r := NewRegistry()
	srv, err := ServeBus("127.0.0.1:0", r, nil)
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
	r.Counter(MetricSweepItems, "status", "ok").Add(2)
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
	// The snapshot is the server registry's on every stream: a job's
	// totals travel in its own closing delta.
	snap := next(t, dec)
	if snap.Type != stream.TypeSnapshot {
		t.Fatalf("filtered snapshot = %+v", snap)
	}
	if v := snap.Data[MetricSweepItems+`{status="ok"}`]; v != 2.0 {
		t.Fatalf("filtered snapshot = %v, want the server registry's series", snap.Data)
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
