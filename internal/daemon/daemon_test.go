package daemon_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynunlock"
	"dynunlock/internal/daemon"
	"dynunlock/internal/flight"
	"dynunlock/internal/lock"
	"dynunlock/internal/stream"
)

// quickSpec is a sub-second 16-bit job every e2e test can afford.
func quickSpec() daemon.JobSpec {
	return daemon.JobSpec{Benchmark: "s5378", KeyBits: 16, Policy: "percycle",
		Scale: 16, Trials: 1, Seed: 7}
}

func startDaemon(t *testing.T, cfg daemon.Config) *daemon.Daemon {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func submit(t *testing.T, addr string, spec daemon.JobSpec) daemon.JobStatus {
	t.Helper()
	st, code := submitRaw(t, addr, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	return st
}

func submitRaw(t *testing.T, addr string, spec daemon.JobSpec) (daemon.JobStatus, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post("http://"+addr+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		// The listener may already be gone (shutdown races); callers
		// that care assert on the returned code.
		return daemon.JobStatus{}, 0
	}
	defer resp.Body.Close()
	var st daemon.JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func waitTerminal(t *testing.T, addr, id string) daemon.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st daemon.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch st.State {
		case daemon.StateDone, daemon.StateFailed, daemon.StateEvicted:
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return daemon.JobStatus{}
}

// TestDaemonJobMatchesCLIAttack is the determinism satellite: the same
// attack submitted through the daemon and run directly through the
// facade must produce bundles whose deterministic columns — recovered
// candidate set, secret seed, iteration and query counts — are
// identical.
func TestDaemonJobMatchesCLIAttack(t *testing.T) {
	d := startDaemon(t, daemon.Config{})
	st := submit(t, d.Addr(), quickSpec())
	fin := waitTerminal(t, d.Addr(), st.ID)
	if fin.State != daemon.StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}
	if fin.Result == nil || !fin.Result.Succeeded {
		t.Fatalf("job did not recover the seed: %+v", fin.Result)
	}

	// Reference: the identical config recorded via the facade, as
	// cmd/dynunlock would run it.
	refDir := t.TempDir()
	rec, err := flight.Create(refDir)
	if err != nil {
		t.Fatal(err)
	}
	rec.Tool = "test"
	cfg := quickSpec().Config()
	cfg.Recorder = rec
	if _, err := dynunlock.RunExperimentCtx(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	jobBundle, err := flight.Open(fin.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	refBundle, err := flight.Open(refDir)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := flight.Compare(&refBundle.Result, &jobBundle.Result); len(diffs) != 0 {
		t.Fatalf("daemon attack diverged from direct attack:\n  %s", strings.Join(diffs, "\n  "))
	}
	for i := range refBundle.Result.Trials {
		a, b := refBundle.Result.Trials[i], jobBundle.Result.Trials[i]
		if a.SecretSeed != b.SecretSeed {
			t.Fatalf("trial %d: secret seed %q != %q", i, a.SecretSeed, b.SecretSeed)
		}
		if strings.Join(a.SeedCandidates, ",") != strings.Join(b.SeedCandidates, ",") {
			t.Fatalf("trial %d: candidate sets differ", i)
		}
	}
	// The daemon bundle replays bit-identically like any CLI bundle.
	replayed, err := jobBundle.Replay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if diffs := flight.Compare(&jobBundle.Result, replayed); len(diffs) != 0 {
		t.Fatalf("daemon bundle replay diverged:\n  %s", strings.Join(diffs, "\n  "))
	}
}

// TestJobLifecycleEventsOnFilteredFeed subscribes to /events?job=<id>
// before submitting and asserts the lifecycle frames arrive in order,
// tagged with the job, with strictly increasing sequence numbers.
func TestJobLifecycleEventsOnFilteredFeed(t *testing.T) {
	d := startDaemon(t, daemon.Config{})

	// The job ID is allocated at submit; subscribe to the aggregate feed
	// and filter client-side for the first job's ID, then verify the
	// server-side filter with a second, post-terminal connection check.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+d.Addr()+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := stream.NewDecoder(bufio.NewReader(resp.Body))

	st := submit(t, d.Addr(), quickSpec())
	waitTerminal(t, d.Addr(), st.ID)

	var states []string
	var lastSeq uint64
	deadline := time.After(30 * time.Second)
	for len(states) == 0 || states[len(states)-1] != daemon.StateDone {
		select {
		case <-deadline:
			t.Fatalf("terminal lifecycle event never arrived; saw %v", states)
		default:
		}
		ev, err := dec.Next()
		if err != nil {
			t.Fatalf("feed ended early (saw %v): %v", states, err)
		}
		if ev.Seq != 0 {
			if ev.Seq <= lastSeq {
				t.Fatalf("sequence not strictly increasing: %d after %d", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
		}
		if ev.Type != stream.TypeJob {
			continue
		}
		if ev.Job != st.ID {
			t.Fatalf("job event tagged %q, want %q", ev.Job, st.ID)
		}
		state, _ := ev.Data["state"].(string)
		states = append(states, state)
	}
	want := []string{daemon.StateQueued, daemon.StateAdmitted, daemon.StateRunning, daemon.StateDone}
	got := strings.Join(states, ",")
	// The queued event can be published before this subscriber's
	// connection is registered; accept the suffix.
	if got != strings.Join(want, ",") && got != strings.Join(want[1:], ",") {
		t.Fatalf("lifecycle states %v, want %v (or its tail)", states, want)
	}
}

// TestEventsJobParamFiltersOtherJobs runs two jobs and asserts the
// filtered feed for one never carries envelopes of the other.
func TestEventsJobParamFiltersOtherJobs(t *testing.T) {
	d := startDaemon(t, daemon.Config{Workers: 2})

	// Hold a subscriber open so lifecycle publishes are retained.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+d.Addr()+"/events", nil)
	agg, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Body.Close()

	a := submit(t, d.Addr(), quickSpec())
	spec2 := quickSpec()
	spec2.Seed = 11
	b := submit(t, d.Addr(), spec2)
	waitTerminal(t, d.Addr(), a.ID)
	waitTerminal(t, d.Addr(), b.ID)

	// Now attach a filtered subscriber and replay the ring: resume from
	// the start so retained events are re-delivered through the filter.
	fctx, fcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer fcancel()
	freq, _ := http.NewRequestWithContext(fctx, "GET",
		"http://"+d.Addr()+"/events?job="+a.ID+"&last-event-id=1", nil)
	fresp, err := http.DefaultClient.Do(freq)
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	dec := stream.NewDecoder(bufio.NewReader(fresp.Body))
	sawJobA := false
	for {
		ev, err := dec.Next()
		if err != nil {
			break
		}
		if ev.Type == stream.TypeHello || ev.Type == stream.TypeSnapshot {
			continue
		}
		if ev.Job != a.ID {
			t.Fatalf("filtered feed leaked event for job %q: %+v", ev.Job, ev)
		}
		if ev.Type == stream.TypeJob {
			sawJobA = true
		}
		if state, _ := ev.Data["state"].(string); state == daemon.StateDone {
			break
		}
	}
	if !sawJobA {
		t.Fatal("filtered feed never delivered job A's lifecycle events")
	}
}

// TestQueueBackpressureRejects503 fills the queue and asserts admission
// control: the overflow submission is rejected 503 and counted.
func TestQueueBackpressureRejects503(t *testing.T) {
	d := startDaemon(t, daemon.Config{Workers: 1, QueueDepth: 1})
	// Worker 1 busy with the first job; the second occupies the queue
	// slot; the third must bounce. A long job keeps the worker busy:
	// trials inflate duration deterministically.
	long := quickSpec()
	long.Trials = 60
	first := submit(t, d.Addr(), long)
	submit(t, d.Addr(), quickSpec())
	var rejected bool
	for i := 0; i < 3; i++ {
		if _, code := submitRaw(t, d.Addr(), quickSpec()); code == http.StatusServiceUnavailable {
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatal("queue overflow was never rejected with 503")
	}
	if v, ok := d.Registry().Sum(daemon.MetricJobsRejected); !ok || v < 1 {
		t.Fatalf("rejected counter = %v (ok=%v), want >= 1", v, ok)
	}
	waitTerminal(t, d.Addr(), first.ID)
}

// TestCancelQueuedJobEvicts cancels a job stuck behind a busy worker.
func TestCancelQueuedJobEvicts(t *testing.T) {
	d := startDaemon(t, daemon.Config{Workers: 1, QueueDepth: 4})
	long := quickSpec()
	long.Trials = 60
	submit(t, d.Addr(), long)
	victim := submit(t, d.Addr(), quickSpec())
	req, _ := http.NewRequest("DELETE", "http://"+d.Addr()+"/jobs/"+victim.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	fin := waitTerminal(t, d.Addr(), victim.ID)
	if fin.State != daemon.StateEvicted {
		t.Fatalf("cancelled queued job finished %s, want evicted", fin.State)
	}
}

// TestResumeFromPartialBundleMatchesUninterrupted is the in-process
// crash-resume round trip: run a job to completion, forge the partial
// bundle a killed job would have left (transcript prefix, torn tail, no
// result.json), resume it, and require the resumed job's outcome to be
// identical to the uninterrupted one.
func TestResumeFromPartialBundleMatchesUninterrupted(t *testing.T) {
	dataDir := t.TempDir()
	d := startDaemon(t, daemon.Config{DataDir: dataDir})
	st := submit(t, d.Addr(), quickSpec())
	fin := waitTerminal(t, d.Addr(), st.ID)
	if fin.State != daemon.StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}
	full, err := flight.Open(fin.Bundle)
	if err != nil {
		t.Fatal(err)
	}

	// Forge the crash artifact under a job-like name the daemon can
	// resolve relative to its data dir.
	dead := filepath.Join(dataDir, "job-dead")
	if err := os.MkdirAll(dead, 0o755); err != nil {
		t.Fatal(err)
	}
	copyFile(t, filepath.Join(fin.Bundle, flight.ManifestFile), filepath.Join(dead, flight.ManifestFile))
	keepPrefixLines(t, filepath.Join(fin.Bundle, flight.OracleFile),
		filepath.Join(dead, flight.OracleFile), len(full.Sessions)/2)
	keepPrefixLines(t, filepath.Join(fin.Bundle, flight.DIPsFile),
		filepath.Join(dead, flight.DIPsFile), len(full.DIPs)/2)
	// Torn tail: half a JSON line, as a SIGKILL mid-write leaves it.
	f, err := os.OpenFile(filepath.Join(dead, flight.DIPsFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"trial":0,"iterat`)
	f.Close()

	resumed := submit(t, d.Addr(), daemon.JobSpec{Resume: "job-dead"})
	rfin := waitTerminal(t, d.Addr(), resumed.ID)
	if rfin.State != daemon.StateDone {
		t.Fatalf("resumed job finished %s (%s)", rfin.State, rfin.Error)
	}
	if rfin.ReplayedSessions == 0 {
		t.Fatal("resumed job replayed nothing from the dead job's transcript")
	}
	rb, err := flight.Open(rfin.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := flight.Compare(&full.Result, &rb.Result); len(diffs) != 0 {
		t.Fatalf("resumed run diverged from uninterrupted run:\n  %s", strings.Join(diffs, "\n  "))
	}
}

// TestResumeRejectsPathOutsideDataDir plants a resumable bundle next to
// the data directory and requires every resume name that reaches it, or
// any other path that is not one element inside the data directory, to be
// refused with 400 and counted as an invalid submission.
func TestResumeRejectsPathOutsideDataDir(t *testing.T) {
	root := t.TempDir()
	d := startDaemon(t, daemon.Config{DataDir: filepath.Join(root, "data")})
	fin := waitTerminal(t, d.Addr(), submit(t, d.Addr(), quickSpec()).ID)
	if fin.State != daemon.StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}
	outside := filepath.Join(root, "outside", "b")
	if err := os.MkdirAll(outside, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{flight.ManifestFile, flight.OracleFile, flight.DIPsFile} {
		copyFile(t, filepath.Join(fin.Bundle, f), filepath.Join(outside, f))
	}
	if _, err := flight.OpenPartial(outside); err != nil {
		t.Fatalf("planted bundle does not open: %v", err)
	}

	bad := []string{"../outside/b", outside, "..", "job-0001/../../outside/b", fin.ID + "/"}
	for i, name := range bad {
		if _, code := submitRaw(t, d.Addr(), daemon.JobSpec{Resume: name}); code != http.StatusBadRequest {
			t.Errorf("resume %q: status %d, want 400", name, code)
		}
		if v := d.Registry().Counter(daemon.MetricJobsRejected, "reason", "invalid").Value(); v != uint64(i+1) {
			t.Errorf("resume %q: invalid rejections = %v, want %d", name, v, i+1)
		}
	}
	if _, err := d.Submit(daemon.JobSpec{Resume: "../outside/b"}); err == nil {
		t.Error("Submit accepted a resume path outside the data directory")
	}
}

// TestShutdownDrainsGracefully verifies the SIGTERM sequence: readyz
// flips 503, new submissions bounce 503, queued jobs evict, running
// jobs finish with valid bundles.
func TestShutdownDrainsGracefully(t *testing.T) {
	d := startDaemon(t, daemon.Config{Workers: 1, QueueDepth: 4})
	long := quickSpec()
	long.Trials = 60
	running := submit(t, d.Addr(), long)
	queued := submit(t, d.Addr(), quickSpec())

	done := make(chan error, 1)
	go func() { done <- d.Shutdown(5 * time.Second) }()

	// During the drain window new submissions must bounce 503. Shutdown
	// flips draining before it waits for jobs, so poll briefly.
	rejected := false
	for i := 0; i < 200 && !rejected; i++ {
		if _, code := submitRaw(t, d.Addr(), quickSpec()); code == http.StatusServiceUnavailable {
			rejected = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !rejected {
		t.Error("submissions during drain were never rejected 503")
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if st := d.Job(queued.ID).State(); st != daemon.StateEvicted && st != daemon.StateDone {
		t.Fatalf("queued job state after drain: %s", st)
	}
	rj := d.Job(running.ID)
	if st := rj.State(); st != daemon.StateDone {
		t.Fatalf("running job state after drain: %s", st)
	}
	// The drained job's bundle is complete and valid.
	if _, err := flight.Open(rj.BundleDir()); err != nil {
		t.Fatalf("drained job bundle: %v", err)
	}
	// And the plane is down.
	if _, err := http.Get("http://" + d.Addr() + "/healthz"); err == nil {
		t.Fatal("HTTP plane still answering after shutdown")
	}
}

// TestJobScopedMetricsOnExposition asserts the shared registry carries
// job-labeled attack series plus the daemon-plane families.
func TestJobScopedMetricsOnExposition(t *testing.T) {
	d := startDaemon(t, daemon.Config{})
	st := submit(t, d.Addr(), quickSpec())
	waitTerminal(t, d.Addr(), st.ID)
	resp, err := http.Get("http://" + d.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`job="` + st.ID + `"`,
		"dynunlockd_jobs_queue_depth",
		"dynunlockd_jobs_inflight",
		"dynunlockd_jobs_submitted_total",
		"dynunlockd_jobs_completed_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The bundle's metrics.json is scoped: every dynunlock_* series in it
	// belongs to this job.
	var snap map[string]any
	data, err := os.ReadFile(filepath.Join(d.Job(st.ID).BundleDir(), flight.MetricsFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 {
		t.Fatal("job metrics.json is empty")
	}
	for key := range snap {
		if strings.Contains(key, "{") && !strings.Contains(key, `job="`+st.ID+`"`) {
			t.Fatalf("job metrics.json leaked foreign series %q", key)
		}
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func keepPrefixLines(t *testing.T, src, dst string, n int) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if n > len(lines) {
		n = len(lines)
	}
	if err := os.WriteFile(dst, []byte(strings.Join(lines[:n], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedKeyJobFailsAndDaemonServes submits a job whose key width is
// far beyond lock.MaxKeyBits: the job must end failed with the bound in
// its error (not take the process down allocating for the width), and the
// daemon must go on to finish the next job.
func TestOversizedKeyJobFailsAndDaemonServes(t *testing.T) {
	d := startDaemon(t, daemon.Config{})
	huge := daemon.JobSpec{Benchmark: "s5378", KeyBits: 2_000_000_000, Scale: 16}
	fin := waitTerminal(t, d.Addr(), submit(t, d.Addr(), huge).ID)
	if fin.State != daemon.StateFailed || !strings.Contains(fin.Error, fmt.Sprint(lock.MaxKeyBits)) {
		t.Fatalf("oversized job ended %s (%q), want failed naming the bound %d", fin.State, fin.Error, lock.MaxKeyBits)
	}
	if next := waitTerminal(t, d.Addr(), submit(t, d.Addr(), quickSpec()).ID); next.State != daemon.StateDone {
		t.Fatalf("job after the oversized one ended %s (%s), want done", next.State, next.Error)
	}
}
