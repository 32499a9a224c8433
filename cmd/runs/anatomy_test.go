package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynunlock"
	"dynunlock/internal/flight"
	"dynunlock/internal/metrics"
)

const paperBundle = "../../bench/bundles/paper128/s5378"

// explainJSON is the shape `explain -json` emits that the invariant checks
// need (a subset of anatomy.Report).
type explainJSON struct {
	TotalSeconds float64 `json:"totalSeconds"`
	Stages       []struct {
		Name    string  `json:"name"`
		Seconds float64 `json:"seconds"`
	} `json:"stages"`
	Solver flight.SolverStats `json:"solver"`
	DIPs   []struct {
		Difficulty float64 `json:"difficulty"`
	} `json:"dips"`
}

// TestExplainInvariantsOnCommittedBundles runs `explain -json` over every
// committed bundle and checks the acceptance invariants: per-stage seconds
// sum to the recorded wall time, and the solver counters exactly equal the
// sum of result.json's per-trial snapshots.
func TestExplainInvariantsOnCommittedBundles(t *testing.T) {
	dirs, err := expandBundleDirs([]string{bundleDir, "../../bench/bundles/affine",
		"../../bench/bundles/paper128"})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no committed bundles found")
	}
	for _, dir := range dirs {
		code, out, errOut := runCLI(t, "explain", "-json", dir)
		if code != exitOK {
			t.Errorf("%s: explain -json exit %d\n%s", dir, code, errOut)
			continue
		}
		var r explainJSON
		if err := json.Unmarshal([]byte(out), &r); err != nil {
			t.Errorf("%s: bad JSON: %v", dir, err)
			continue
		}
		var sum float64
		for _, s := range r.Stages {
			sum += s.Seconds
		}
		if math.Abs(sum-r.TotalSeconds) > 1e-9 {
			t.Errorf("%s: stage seconds sum %v, want wall time %v", dir, sum, r.TotalSeconds)
		}
		b, err := flight.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var want flight.SolverStats
		for _, tr := range b.Result.Trials {
			want.Conflicts += tr.Solver.Conflicts
			want.Propagations += tr.Solver.Propagations
			want.Decisions += tr.Solver.Decisions
			want.Restarts += tr.Solver.Restarts
			want.Learnt += tr.Solver.Learnt
			want.XorPropagations += tr.Solver.XorPropagations
			want.XorConflicts += tr.Solver.XorConflicts
		}
		got := r.Solver
		got.Removed, got.SimplifyCalls, got.SimplifyRemoved, got.SimplifyStrength = 0, 0, 0, 0
		want.Removed, want.SimplifyCalls, want.SimplifyRemoved, want.SimplifyStrength = 0, 0, 0, 0
		if got != want {
			t.Errorf("%s: explain solver totals %+v, want result.json sum %+v", dir, got, want)
		}
	}
}

// TestExplainDeterministicReport checks the text report renders identically
// across invocations and carries the run summary (experiment line, trial
// table) above the headline attribution lines.
func TestExplainDeterministicReport(t *testing.T) {
	code, out1, errOut := runCLI(t, "explain", goodBundle)
	if code != exitOK {
		t.Fatalf("explain exit %d\n%s", code, errOut)
	}
	_, out2, _ := runCLI(t, "explain", goodBundle)
	if out1 != out2 {
		t.Error("explain rendered differently across two runs on the same bundle")
	}
	for _, want := range []string{
		"- anatomy of " + goodBundle + "\n- recorded ",
		"\n- experiment s5378 scale=16 keybits=8 policy=per-cycle mode=linear seed=100 analytic=false",
		"Trials (2 recorded)",
		"| Trial | Candidates | Iterations | Queries | Closed | Seconds | Conflicts | Enc vars | Enc clauses | Success |",
		"| unique |",
		"Wall-time attribution (stages sum to the recorded wall time)",
		"\n|   unique | ",
		"\n- hottest stage: dip_loop",
		"\n- solver: conflicts=",
		"Hardest DIP iterations",
	} {
		if !strings.Contains(out1, want) {
			t.Errorf("explain output missing %q:\n%s", want, out1)
		}
	}
	// Committed bundles carry the sampled LBD distribution in their
	// closing metrics sample.
	for _, want := range []string{"\n- search telemetry (closing sample): lbd_samples=", "\n- lbd distribution:"} {
		if !strings.Contains(out1, want) {
			t.Errorf("committed bundle shows no search telemetry %q:\n%s", want, out1)
		}
	}
}

// TestExplainFreshRecordingShowsSearchTelemetry records a fresh bundle
// through the facade, under a registry the test can read, and checks
// explain's search line: its LBD sample count and mean are the run's
// learnt-LBD series, its restarts are result.json's, and the LBD
// distribution follows.
func TestExplainFreshRecordingShowsSearchTelemetry(t *testing.T) {
	dir := t.TempDir()
	rec, err := flight.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec.Tool = "test"
	cfg := dynunlock.ExperimentConfig{
		Benchmark: "s5378", KeyBits: 16, Policy: dynunlock.PerCycle,
		Scale: 16, Trials: 1, SeedBase: 7, Recorder: rec,
	}
	reg := metrics.NewRegistry()
	if _, err := dynunlock.RunExperimentCtx(metrics.With(context.Background(), reg), cfg); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCLI(t, "explain", dir)
	if code != exitOK {
		t.Fatalf("explain exit %d\n%s", code, errOut)
	}
	b, err := flight.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lbd := reg.Histogram(metrics.MetricSatLearntLBD, metrics.LBDBuckets, "instance", "0")
	want := fmt.Sprintf("search telemetry (closing sample): lbd_samples=%d mean_lbd=%.2f restarts=%d\n",
		lbd.Count(), lbd.Sum()/float64(lbd.Count()), b.Result.Trials[0].Solver.Restarts)
	if lbd.Count() == 0 || !strings.Contains(out, want) {
		t.Errorf("fresh bundle's search line is not %q:\n%s", want, out)
	}
	if !strings.Contains(out, "lbd distribution:") {
		t.Errorf("fresh bundle missing the LBD distribution line:\n%s", out)
	}
}

// TestCompareAttributesSeededRegression pins the acceptance criterion on
// committed data: comparing the scale-16, 8-bit s5378 run against the
// paper-scale 128-bit one must attribute the movement — the dip_loop stage
// grew and decisions grew most — and, since the two runs' outcomes differ,
// exit 1. Committed bundles are frozen files, so the attribution is fully
// deterministic.
func TestCompareAttributesSeededRegression(t *testing.T) {
	code, out, errOut := runCLI(t, "compare", goodBundle, paperBundle)
	if code != exitMismatch {
		t.Fatalf("compare exit %d, want %d\n%s%s", code, exitMismatch, out, errOut)
	}
	for _, want := range []string{
		"Outcomes: " + goodBundle + " vs " + paperBundle,
		"avg iterations",
		"bundles differ on",
		"Stage wall-time movement",
		"Solver series movement",
		"regressed stage: dip_loop (+",
		"regressed solver series: decisions (44.79x)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}

	// Self-comparison regresses nothing.
	code, out, _ = runCLI(t, "compare", goodBundle, goodBundle)
	if code != exitOK {
		t.Fatalf("self-compare exit %d", code)
	}
	if !strings.Contains(out, "regressed stage: none (no stage grew)") ||
		!strings.Contains(out, "regressed solver series: none (no series grew)") ||
		!strings.Contains(out, "bundles match on deterministic columns") {
		t.Errorf("self-compare should regress nothing:\n%s", out)
	}
}

// sseFrame serializes one minimal SSE frame for the fake servers below.
func sseFrame(seq uint64, typ, dataJSON string) string {
	id := ""
	if seq > 0 {
		id = fmt.Sprintf("id: %d\n", seq)
	}
	return fmt.Sprintf("%sevent: %s\ndata: {\"seq\":%d,\"type\":%q,\"data\":%s}\n\n",
		id, typ, seq, typ, dataJSON)
}

// TestWatchReconnectResumesFromLastSeq drops an established stream mid-run
// and checks the watcher reconnects with the SSE Last-Event-ID of the last
// event it saw, then follows the resumed stream to the terminal result.
func TestWatchReconnectResumesFromLastSeq(t *testing.T) {
	var conns atomic.Int32
	var resumeID atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := conns.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		switch n {
		case 1:
			// Two sequenced events, then the connection drops (EOF).
			body := sseFrame(0, "hello", `{"proto":2,"last_seq":0}`) +
				sseFrame(1, "delta", `{"iterations":1}`) +
				sseFrame(2, "dip", `{"trial":0,"iteration":1,"conflicts":3,"solve_ms":0.5}`)
			w.Write([]byte(body))
		default:
			resumeID.Store(r.Header.Get("Last-Event-ID"))
			body := sseFrame(0, "hello", `{"proto":2,"last_seq":2}`) +
				sseFrame(3, "dip", `{"trial":0,"iteration":2,"conflicts":5,"solve_ms":0.5,"difficulty":3.5,"lbd_mean":2.5,"restarts":1,"xor_share":0}`) +
				sseFrame(4, "result", `{"scope":"experiment","trials_run":1,"succeeded":true,"stopped":false}`)
			w.Write([]byte(body))
		}
	}))
	defer srv.Close()

	var stdout, stderr strings.Builder
	var slept []time.Duration
	w := &watcher{
		url: srv.URL, retries: 3, wait: 10 * time.Millisecond,
		stdout: &stdout, stderr: &stderr,
		sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	if code := w.run(); code != exitOK {
		t.Fatalf("watch exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if got := conns.Load(); got != 2 {
		t.Errorf("server saw %d connections, want 2", got)
	}
	if got, _ := resumeID.Load().(string); got != "2" {
		t.Errorf("reconnect sent Last-Event-ID %q, want \"2\" (last seq seen)", got)
	}
	if len(slept) != 1 || slept[0] != 10*time.Millisecond {
		t.Errorf("backoff sleeps %v, want one initial-wait sleep", slept)
	}
	if !strings.Contains(stderr.String(), "reconnecting in 10ms (attempt 1/3, resume after seq 2)") {
		t.Errorf("reconnect not announced:\n%s", stderr.String())
	}
	for _, want := range []string{
		"dip: trial=0 iter=1 conflicts=3 solve_ms=0.5\n",
		"dip: trial=0 iter=2 conflicts=5 solve_ms=0.5 difficulty=3.5 lbd=2.5 restarts=1 xor=0",
		"result: experiment done trials=1 succeeded=true",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("watch output missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestWatchReconnectGivesUpAfterRetries bounds the retry loop: a stream
// that keeps dropping without progress exhausts -retries with exponential
// backoff and exits 3.
func TestWatchReconnectGivesUpAfterRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Write([]byte(sseFrame(0, "hello", `{"proto":1,"last_seq":0}`)))
	}))
	defer srv.Close()

	var stdout, stderr strings.Builder
	var slept []time.Duration
	w := &watcher{
		url: srv.URL, retries: 3, wait: time.Millisecond,
		stdout: &stdout, stderr: &stderr,
		sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	if code := w.run(); code != exitCorrupt {
		t.Fatalf("watch exit %d, want %d", code, exitCorrupt)
	}
	// Hello frames carry no sequence number, so no connection "progressed":
	// the attempt counter never resets and backoff doubles each round.
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("backoff %d = %v, want %v", i, slept[i], want[i])
		}
	}
	if !strings.Contains(stderr.String(), "giving up after 3 reconnect attempt(s)") {
		t.Errorf("give-up not reported:\n%s", stderr.String())
	}
}

// TestWatchCorruptFrameNeverRetries pins the grammar-violation contract:
// a corrupt frame on an established stream exits 3 immediately —
// reconnecting cannot repair a stream that violates the wire grammar.
func TestWatchCorruptFrameNeverRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Write([]byte(sseFrame(1, "delta", `{"iterations":1}`)))
		w.Write([]byte("bogus line without separator\n\n"))
	}))
	defer srv.Close()

	var stdout, stderr strings.Builder
	w := &watcher{
		url: srv.URL, retries: 5, wait: time.Millisecond,
		stdout: &stdout, stderr: &stderr,
		sleep: func(d time.Duration) { t.Errorf("slept %v on a corrupt stream", d) },
	}
	if code := w.run(); code != exitCorrupt {
		t.Fatalf("watch exit %d, want %d", code, exitCorrupt)
	}
}

// An over-long SSE line is corrupt, not a broken connection: watch exits 3
// without reconnecting.
func TestWatchOverlongLineNeverRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Write([]byte(sseFrame(1, "delta", `{"iterations":1}`)))
		w.Write([]byte("data: " + strings.Repeat("x", 5<<20) + "\n\n"))
	}))
	defer srv.Close()

	var stdout, stderr strings.Builder
	w := &watcher{
		url: srv.URL, retries: 5, wait: time.Millisecond,
		stdout: &stdout, stderr: &stderr,
		sleep: func(d time.Duration) { t.Fatalf("slept %v on an over-long line", d) },
	}
	if code := w.run(); code != exitCorrupt {
		t.Fatalf("watch exit %d, want %d", code, exitCorrupt)
	}
}
