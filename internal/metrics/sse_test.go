package metrics

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dynunlock/internal/stream"
)

// openEvents connects to /events and returns the response plus a stream
// decoder over the body. The caller owns resp.Body.
func openEvents(t *testing.T, ctx context.Context, url string) (*http.Response, *stream.Decoder) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		resp.Body.Close()
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	return resp, stream.NewDecoder(resp.Body)
}

// next reads one event, failing the test on decode errors.
func next(t *testing.T, d *stream.Decoder) stream.Event {
	t.Helper()
	ev, err := d.Next()
	if err != nil {
		t.Fatalf("decoder: %v", err)
	}
	return ev
}

func TestEventsEndpointStreamsAndResumes(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricAttackDIPs, "engine", "sequential").Add(7)
	bus := stream.NewBus()
	srv, err := ServeBus("127.0.0.1:0", r, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	ctx, cancel := context.WithCancel(context.Background())
	resp, dec := openEvents(t, ctx, base+"/events")
	defer resp.Body.Close()

	// Frame 1: hello (synthesized, no sequence number).
	hello := next(t, dec)
	if hello.Type != stream.TypeHello || hello.Seq != 0 {
		t.Fatalf("first frame = %+v, want hello with seq 0", hello)
	}
	if p, ok := hello.Data["proto"].(float64); !ok || int(p) != stream.Proto {
		t.Errorf("hello proto = %v, want %d", hello.Data["proto"], stream.Proto)
	}
	if resumed, _ := hello.Data["resumed"].(bool); resumed {
		t.Error("fresh connection claims resumed=true")
	}

	// Frame 2: full registry snapshot so clients start from absolute totals.
	snap := next(t, dec)
	if snap.Type != stream.TypeSnapshot || snap.Seq != 0 {
		t.Fatalf("second frame = %+v, want snapshot with seq 0", snap)
	}
	if v, ok := snap.Data[MetricAttackDIPs+`{engine="sequential"}`].(float64); !ok || v != 7 {
		t.Errorf("snapshot missing attack counter: %v", snap.Data)
	}

	// Live publishes arrive in order, numbered.
	for i := 1; i <= 5; i++ {
		bus.Publish(stream.TypeDelta, map[string]any{"iterations": float64(i)})
	}
	for i := 1; i <= 5; i++ {
		ev := next(t, dec)
		if ev.Type != stream.TypeDelta || ev.Seq != uint64(i) {
			t.Fatalf("event %d = %+v, want delta seq %d", i, ev, i)
		}
	}
	cancel()
	resp.Body.Close()

	// Reconnect with Last-Event-ID: only events after it replay.
	req, _ := http.NewRequest(http.MethodGet, base+"/events", nil)
	req.Header.Set("Last-Event-ID", "3")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	dec2 := stream.NewDecoder(resp2.Body)
	hello2 := next(t, dec2)
	if hello2.Type != stream.TypeHello {
		t.Fatalf("resume first frame = %+v", hello2)
	}
	if resumed, _ := hello2.Data["resumed"].(bool); !resumed {
		t.Errorf("resume hello = %v, want resumed=true", hello2.Data)
	}
	if ls, _ := hello2.Data["last_seq"].(float64); ls != 5 {
		t.Errorf("resume hello last_seq = %v, want 5", hello2.Data["last_seq"])
	}
	if ev := next(t, dec2); ev.Type != stream.TypeSnapshot {
		t.Fatalf("resume second frame = %+v, want snapshot", ev)
	}
	for want := uint64(4); want <= 5; want++ {
		ev := next(t, dec2)
		if ev.Seq != want {
			t.Fatalf("resumed event seq = %d, want %d", ev.Seq, want)
		}
	}
}

func TestEventsQueryParamResume(t *testing.T) {
	r := NewRegistry()
	bus := stream.NewBus()
	srv, err := ServeBus("127.0.0.1:0", r, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Seed the ring: sequence numbers only advance with a subscriber
	// attached, so hold one open while publishing.
	ctx, cancel := context.WithCancel(context.Background())
	resp, dec := openEvents(t, ctx, base+"/events")
	next(t, dec) // hello
	next(t, dec) // snapshot
	for i := 0; i < 3; i++ {
		bus.Publish(stream.TypeDelta, map[string]any{"i": float64(i)})
	}
	next(t, dec)
	next(t, dec)
	next(t, dec)
	cancel()
	resp.Body.Close()

	resp2, dec2 := openEvents(t, context.Background(), base+"/events?last-event-id=2")
	defer resp2.Body.Close()
	next(t, dec2) // hello
	next(t, dec2) // snapshot
	if ev := next(t, dec2); ev.Seq != 3 {
		t.Fatalf("query-param resume replayed seq %d, want 3", ev.Seq)
	}
}

func TestShutdownDrainsLiveSSESubscriber(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricSatConflicts, "engine", "sequential").Add(41)
	bus := stream.NewBus()
	srv, err := ServeBus("127.0.0.1:0", r, bus)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	resp, dec := openEvents(t, context.Background(), base+"/events")
	defer resp.Body.Close()
	next(t, dec) // hello
	next(t, dec) // snapshot

	bus.Publish(stream.TypeDelta, map[string]any{"conflicts": float64(41)})
	if ev := next(t, dec); ev.Type != stream.TypeDelta {
		t.Fatalf("pre-drain event = %+v", ev)
	}

	// The counter moves just before shutdown; the final snapshot must
	// carry the terminal total (the result.json equality CI asserts).
	r.Counter(MetricSatConflicts, "engine", "sequential").Add(1)

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(2 * time.Second) }()

	// The stream ends with one final snapshot, then clean EOF.
	fin := next(t, dec)
	if fin.Type != stream.TypeSnapshot {
		t.Fatalf("drain frame = %+v, want final snapshot", fin)
	}
	if v, _ := fin.Data[MetricSatConflicts+`{engine="sequential"}`].(float64); v != 42 {
		t.Errorf("final snapshot conflicts = %v, want 42", v)
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after final snapshot: %v, want io.EOF", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown with a live SSE subscriber = %v, want nil", err)
	}
}

func TestEventsRefusedWhileDraining(t *testing.T) {
	srv, err := ServeBus("127.0.0.1:0", NewRegistry(), stream.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.closeSSESubscribers() // mark draining without stopping the listener
	resp, err := http.Get("http://" + srv.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /events status = %s, want 503", resp.Status)
	}
}

// TestEventsAndLive404WithoutBus: /events needs a bus, and /live, the
// browser dashboard that Markdown reports replaced, has no route at all.
func TestEventsAndLive404WithoutBus(t *testing.T) {
	srv, err := ServeBus("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/events", "/live"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without bus status = %s, want 404", path, resp.Status)
		}
	}
}

func TestEventsKeepAliveComment(t *testing.T) {
	srv, err := ServeBus("127.0.0.1:0", NewRegistry(), stream.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.keepAlive = 20 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+srv.Addr()+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended before a keep-alive comment: %v", err)
		}
		if strings.HasPrefix(line, ": keep-alive") {
			return
		}
	}
}

func TestBuildInfoExposition(t *testing.T) {
	r := NewRegistry()
	r.SetBuildInfo("goversion", "go1.22.0", "format", "3", "native_xor", "true")
	srv, err := ServeBus("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	text := string(get(t, base+"/metrics"))
	if !strings.Contains(text, MetricBuildInfo+`{format="3",goversion="go1.22.0",native_xor="true"} 1`) {
		t.Errorf("/metrics missing build_info sample:\n%s", text)
	}
	if !strings.Contains(text, "# HELP "+MetricBuildInfo) {
		t.Errorf("/metrics missing build_info HELP:\n%s", text)
	}

	snap := r.Snapshot()
	if v, ok := snap[MetricBuildInfo+`{format="3",goversion="go1.22.0",native_xor="true"}`]; !ok || v.(float64) != 1 {
		t.Errorf("snapshot missing build_info: %v", snap)
	}
}
