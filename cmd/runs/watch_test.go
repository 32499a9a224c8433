package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dynunlock/internal/metrics"
	"dynunlock/internal/stream"
)

func TestWatchFollowsLiveRunToCompletion(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter(metrics.MetricAttackDIPs, "engine", "sequential").Add(4)
	bus := stream.NewBus()
	srv, err := metrics.ServeBus("127.0.0.1:0", reg, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Publish the run once the watcher has attached; Enabled flips when
	// its subscription lands.
	go func() {
		for !bus.Enabled() {
			time.Sleep(time.Millisecond)
		}
		bus.Publish(stream.TypeDelta, map[string]any{
			"iterations": 4.0, "conflicts": 120.0, "encode_vars": 900.0, "encode_clauses": 3100.0,
		})
		bus.Publish(stream.TypeDIP, map[string]any{
			"trial": 0, "iteration": 5, "conflicts": 17, "solve_ms": 1.25,
			"difficulty": 17.5, "lbd_mean": 4.25, "restarts": 2, "xor_share": 0.5,
			"rank": 6.0, "rank_target": 8.0, "seeds_log2": 2.0,
		})
		bus.Publish(stream.TypeResult, map[string]any{
			"scope": "trial", "iterations": 5, "candidates": 1, "converged": true, "verified": true,
		})
		bus.Publish(stream.TypeResult, map[string]any{
			"scope": "experiment", "trials_run": 1, "succeeded": true, "stopped": false,
		})
	}()

	code, out, errOut := runCLI(t, "watch", srv.Addr())
	if code != exitOK {
		t.Fatalf("watch exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, want := range []string{
		"watch: connected proto=2",
		"snapshot: iters=4",
		"vars=900 clauses=3100", // the superset over the -progress line
		"dip: trial=0 iter=5 conflicts=17 solve_ms=1.25 difficulty=17.5 lbd=4.25 restarts=2 xor=0.5 rank=6/8 seeds=2^2",
		"result: trial done iterations=5 candidates=1 converged=true verified=true",
		"result: experiment done trials=1 succeeded=true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("watch output missing %q:\n%s", want, out)
		}
	}
}

func TestWatchExitCodes(t *testing.T) {
	// Usage: wrong arg count.
	if code, _, _ := runCLI(t, "watch"); code != exitUsage {
		t.Errorf("watch with no addr = %d, want %d", code, exitUsage)
	}
	// Connection refused: nothing listens on a fresh port.
	if code, _, errOut := runCLI(t, "watch", "127.0.0.1:1"); code != exitCorrupt {
		t.Errorf("watch refused connection = %d, want %d (%s)", code, exitCorrupt, errOut)
	}
	// A non-SSE endpoint (here /metrics) is not a watchable stream.
	srv, err := metrics.Serve("127.0.0.1:0", metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _, _ := runCLI(t, "watch", "http://"+srv.Addr()+"/metrics"); code != exitCorrupt {
		t.Errorf("watch on /metrics = %d, want %d", code, exitCorrupt)
	}
}

func TestWatchStreamCorruptAndTruncated(t *testing.T) {
	var out, errOut bytes.Buffer
	corrupt := "id: borked\nevent: delta\ndata: {\"seq\":1,\"type\":\"delta\",\"data\":{}}\n\n"
	if code := watchStream(strings.NewReader(corrupt), &out, &errOut); code != exitCorrupt {
		t.Errorf("corrupt frame exit = %d, want %d", code, exitCorrupt)
	}
	// A well-formed stream that ends before the experiment result is a
	// truncated run, not a success.
	frames := "event: hello\ndata: {\"type\":\"hello\",\"data\":{\"proto\":1}}\n\n"
	errOut.Reset()
	if code := watchStream(strings.NewReader(frames), &out, &errOut); code != exitCorrupt {
		t.Errorf("truncated stream exit = %d, want %d", code, exitCorrupt)
	}
	if !strings.Contains(errOut.String(), "ended before the run finished") {
		t.Errorf("truncation not reported: %s", errOut.String())
	}
}

func TestWatchURLNormalization(t *testing.T) {
	for in, want := range map[string]string{
		"127.0.0.1:9090":          "http://127.0.0.1:9090/events",
		"http://host:9090":        "http://host:9090/events",
		"http://host:9090/":       "http://host:9090/events",
		"http://host:9090/events": "http://host:9090/events",
		"localhost:1234":          "http://localhost:1234/events",
	} {
		if got := watchURL(in); got != want {
			t.Errorf("watchURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWatchJobFollowsOneJobToTerminalState drives `watch -job`: the feed
// filter keeps the other job's envelopes out, job lifecycle frames render
// as lines, and the watched job's terminal state ends the watch (done →
// exit 0).
func TestWatchJobFollowsOneJobToTerminalState(t *testing.T) {
	reg := metrics.NewRegistry()
	bus := stream.NewBus()
	srv, err := metrics.ServeBus("127.0.0.1:0", reg, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	go func() {
		for !bus.Enabled() {
			time.Sleep(time.Millisecond)
		}
		j1, j2 := bus.WithJob("job-0001"), bus.WithJob("job-0002")
		j1.Publish(stream.TypeJob, map[string]any{"job": "job-0001", "state": "running"})
		j2.Publish(stream.TypeJob, map[string]any{"job": "job-0002", "state": "running"})
		j2.Publish(stream.TypeDIP, map[string]any{"trial": 0, "iteration": 1})
		j1.Publish(stream.TypeJob, map[string]any{"job": "job-0001", "state": "done"})
		j2.Publish(stream.TypeJob, map[string]any{"job": "job-0002", "state": "failed", "error": "boom"})
	}()

	code, out, errOut := runCLI(t, "watch", "-job", "job-0001", srv.Addr())
	if code != exitOK {
		t.Fatalf("watch -job exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, want := range []string{
		"job: job-0001 state=running",
		"job: job-0001 state=done",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("watch output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "job-0002") {
		t.Errorf("watch leaked the other job's events:\n%s", out)
	}
}

// TestWatchJobTerminalFailureExitsMismatch: a watched job ending failed
// or evicted exits 1 — it will never emit its experiment result event.
func TestWatchJobTerminalFailureExitsMismatch(t *testing.T) {
	reg := metrics.NewRegistry()
	bus := stream.NewBus()
	srv, err := metrics.ServeBus("127.0.0.1:0", reg, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	go func() {
		for !bus.Enabled() {
			time.Sleep(time.Millisecond)
		}
		j := bus.WithJob("job-0009")
		j.Publish(stream.TypeJob, map[string]any{"job": "job-0009", "state": "running"})
		j.Publish(stream.TypeJob, map[string]any{"job": "job-0009", "state": "evicted", "error": "cancelled mid-run"})
	}()

	code, out, errOut := runCLI(t, "watch", "-job", "job-0009", srv.Addr())
	if code != exitMismatch {
		t.Fatalf("watch -job (evicted) exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, exitMismatch, out, errOut)
	}
	if !strings.Contains(out, `state=evicted error="cancelled mid-run"`) {
		t.Errorf("eviction line missing from output:\n%s", out)
	}
}
