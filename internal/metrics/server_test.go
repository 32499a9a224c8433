package metrics

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricAttackDIPs, "engine", "sequential").Add(9)
	srv, err := ServeBus("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// /metrics parses and carries the registered and process series.
	text := string(get(t, base+"/metrics"))
	names := parseProm(t, text)
	for _, want := range []string{MetricAttackDIPs, MetricProcessRSS, MetricGoroutines} {
		if !names[want] {
			t.Errorf("/metrics missing %s:\n%s", want, text)
		}
	}
	if !strings.Contains(text, MetricAttackDIPs+`{engine="sequential"} 9`) {
		t.Errorf("/metrics sample wrong:\n%s", text)
	}

	// /metrics is the one view of the registry: there is no /debug/vars.
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/vars: %s, want 404", resp.Status)
	}

	// /debug/pprof/ serves the index.
	if body := string(get(t, base+"/debug/pprof/")); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ index missing profiles")
	}

	// A second scrape while counters moved observes the new value (the
	// live-update property CI asserts end to end).
	r.Counter(MetricAttackDIPs, "engine", "sequential").Add(1)
	if text := string(get(t, base+"/metrics")); !strings.Contains(text, `{engine="sequential"} 10`) {
		t.Errorf("scrape did not observe live update:\n%s", text)
	}
}

func TestShutdownDrainsInflightScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricAttackDIPs, "engine", "sequential").Add(3)
	srv, err := ServeBus("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.handlerDelay = 200 * time.Millisecond
	base := "http://" + srv.Addr()

	// Put a slow scrape in flight, then shut down while it is sleeping.
	type scrape struct {
		body string
		err  error
	}
	ch := make(chan scrape, 1)
	go func() {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			ch <- scrape{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		ch <- scrape{body: string(b), err: err}
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the handler

	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("Shutdown did not drain cleanly: %v", err)
	}

	// The in-flight scrape completed with a full response body.
	got := <-ch
	if got.err != nil {
		t.Fatalf("in-flight scrape aborted by shutdown: %v", got.err)
	}
	if !strings.Contains(got.body, MetricAttackDIPs+`{engine="sequential"} 3`) {
		t.Errorf("drained scrape body incomplete:\n%s", got.body)
	}

	// New connections are refused after shutdown.
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}
}

func TestShutdownTimeoutCutsHungRequests(t *testing.T) {
	srv, err := ServeBus("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.handlerDelay = 5 * time.Second
	ch := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		ch <- err
	}()
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	err = srv.Shutdown(100 * time.Millisecond)
	if err == nil {
		t.Fatal("Shutdown returned nil despite a hung request")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Shutdown took %v, should give up at the timeout", elapsed)
	}
	<-ch // the hung request errors once its connection is closed
}
