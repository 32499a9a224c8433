package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dynunlock"
	"dynunlock/internal/bench"
	"dynunlock/internal/daemon"
	"dynunlock/internal/flight"
	"dynunlock/internal/sat"
	"dynunlock/internal/stream"
	"dynunlock/internal/trace"
)

// runLimit bounds one daemon run, so a lost event fails the run instead of
// hanging it.
const runLimit = 150 * time.Second

// jobRec is one job as its client saw it.
type jobRec struct {
	circuit  string
	round    int
	id       string
	post     time.Time // POST /jobs sent
	accepted time.Time // POST /jobs answered
	terminal time.Time // terminal job event received
	events   int       // bus events the job's /events stream carried
	gap      bool      // the stream's resume position had been evicted
	rejected bool      // POST answered 503
	status   daemon.JobStatus
	trial    flight.TrialRecord
	fail     string
}

func (j *jobRec) turnaround() float64 { return j.terminal.Sub(j.post).Seconds() }

// jobTimes parses the daemon's lifecycle timestamps.
func (j *jobRec) jobTimes() (created, started, finished time.Time) {
	created, _ = time.Parse(time.RFC3339Nano, j.status.CreatedAt)
	started, _ = time.Parse(time.RFC3339Nano, j.status.StartedAt)
	finished, _ = time.Parse(time.RFC3339Nano, j.status.FinishedAt)
	return created, started, finished
}

// runDaemon runs daemon_jobs: an in-process daemon with lanes workers, and
// lanes closed-loop clients that each submit a job, follow its
// /events?job=<id> stream to the terminal job event, read GET /jobs/{id},
// and only then submit the next. A round submits one job per circuit.
func runDaemon(w workload, seed int64, b budget, spans *spanLog) (*runOutput, error) {
	out := newRunOutput()
	// The expected secrets come from the same build, lock and fabricate
	// path as the in-process workloads; its medians give bench.build_s and
	// lock.lock_s, and setup_s is replaced by the daemon's start-up below.
	ts, err := setupTargets(w, seed, out)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(w.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(w.workDir, "daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	var d *daemon.Daemon
	var starts []float64
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.Shutdown(time.Second); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		d, err = daemon.New(daemon.Config{Addr: "127.0.0.1:0", DataDir: filepath.Join(dir, strconv.Itoa(i)), Workers: w.lanes})
		if err != nil {
			return nil, err
		}
		if err := waitReady(ctx, client, "http://"+d.Addr()); err != nil {
			d.Close()
			return nil, err
		}
		starts = append(starts, time.Since(t0).Seconds())
	}
	defer d.Shutdown(5 * time.Second)
	out.set("setup_s", median(starts), len(starts))
	base := "http://" + d.Addr()

	mon, err := startMonitor(ctx, client, base)
	if err != nil {
		return nil, err
	}
	defer mon.stop()

	c := &jobClient{ctx: ctx, http: client, base: base, mon: mon, w: w, seed: seed}
	if warm := c.run(bench.Table2[0].Name, -1); warm.fail != "" {
		return nil, fmt.Errorf("warm-up job: %s", warm.fail)
	}

	traced := spans != nil
	var rounds, tracedRounds []float64
	// all holds every round's jobs; in a traced run untraced and traced
	// rounds alternate, so odd indices are traced.
	var all [][]jobRec
	var meter roundMeter
	start := time.Now()
	for round := 0; b.more(round, time.Since(start)); round++ {
		if err := meter.start(); err != nil {
			return nil, err
		}
		recs, wall := c.round(round)
		if err := meter.stop(); err != nil {
			return nil, err
		}
		rounds = append(rounds, wall)
		all = append(all, recs)
		if traced {
			if err := prepareRound(); err != nil {
				return nil, err
			}
			trecs, twall := c.round(round)
			tracedRounds = append(tracedRounds, twall)
			all = append(all, trecs)
		}
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("daemon run exceeded %v", runLimit)
	}

	// Correctness: every job's bundle must hold a verified, exact,
	// converged trial that recovered the secret the job asked for.
	samples := make(map[string][]float64)
	var jobs []*jobRec
	for i := range all {
		for k := range all[i] {
			j := &all[i][k]
			if j.fail == "" {
				j.fail = verifyJob(j, ts[k], seed)
			}
			jobs = append(jobs, j)
		}
	}
	if traced {
		// A traced round reruns the untraced round before it on the same
		// inputs; the daemon must have searched identically.
		for i := 0; i+1 < len(all); i += 2 {
			for k := range all[i+1] {
				u, t := &all[i][k], &all[i+1][k]
				if t.fail == "" && u.fail == "" && trialCounts(t.trial) != trialCounts(u.trial) {
					t.fail = "traced job searched differently from the untraced one"
				}
			}
		}
	}
	for _, j := range jobs {
		out.attempt(w.name, attackRec{circuit: j.circuit, round: j.round, fail: j.fail})
		if j.fail == "" {
			samples[j.circuit] = append(samples[j.circuit], j.turnaround())
		}
	}

	if !traced {
		n := len(jobs)
		out.set("attack_s_geomean", perCircuitGeomean(w.circuits, samples), n)
		out.set("throughput_per_s", float64(n)/sum(rounds), n)
		meter.set(out, n)
		return out, nil
	}

	table := newLayerTable(w.lanes)
	table.wall = sum(tracedRounds)
	for i := 1; i < len(all); i += 2 {
		for k := range all[i] {
			if j := &all[i][k]; j.fail == "" {
				if err := traceJob(j, spans, table); err != nil {
					return nil, err
				}
			}
		}
	}
	sessions, cycles, aigNodes, err := bundleCounts(all[0])
	if err != nil {
		return nil, err
	}
	ref := make([]counts, 0, len(all[0]))
	for _, j := range all[0] {
		if j.fail == "" {
			ref = append(ref, trialCounts(j.trial))
		}
	}
	setRefCounts(out, ref, sessions, cycles, aigNodes)
	out.set("oracle.session_s", 0, 0) // sessions run inside the daemon, untimed
	out.set("oracle.session_us_p50", 0, 0)
	setDaemonMetrics(out, c, jobs, append(rounds, tracedRounds...), w.lanes)
	out.set("trace.overhead_ratio", ratio(sum(tracedRounds), sum(rounds))-1, len(rounds))
	setLayerMetrics(out, table, &meter)
	return out, nil
}

// waitReady polls /readyz until the daemon answers 200.
func waitReady(ctx context.Context, client *http.Client, base string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return fmt.Errorf("daemon never became ready: %w", ctx.Err())
		}
		time.Sleep(time.Millisecond)
	}
}

// monitor follows the aggregate /events stream for the whole run. Being
// attached keeps the bus numbering and retaining every event, so a client
// that opens its job stream after POST /jobs resumes from a position
// before its job's first event instead of missing it.
type monitor struct {
	lastSeq atomic.Uint64
	gaps    atomic.Int64
	cancel  context.CancelFunc
	done    chan struct{}
}

func startMonitor(ctx context.Context, client *http.Client, base string) (*monitor, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	dec := stream.NewDecoder(resp.Body)
	// The hello frame is written after the subscription is attached.
	if ev, err := dec.Next(); err != nil || ev.Type != stream.TypeHello {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("monitor stream did not open: %v", err)
	}
	m := &monitor{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(m.done)
		defer resp.Body.Close()
		for {
			ev, err := dec.Next()
			if err != nil {
				return
			}
			if ev.Seq == 0 {
				continue
			}
			if prev := m.lastSeq.Load(); prev > 0 && ev.Seq != prev+1 {
				m.gaps.Add(1)
			}
			m.lastSeq.Store(ev.Seq)
		}
	}()
	return m, nil
}

func (m *monitor) stop() {
	m.cancel()
	<-m.done
}

// jobClient submits and follows jobs over the daemon's HTTP API.
type jobClient struct {
	ctx  context.Context
	http *http.Client
	base string
	mon  *monitor
	w    workload
	seed int64
}

// round runs one job per circuit through lanes closed-loop clients and
// returns the records (in circuit order) and the round's wall time.
func (c *jobClient) round(round int) ([]jobRec, float64) {
	t0 := time.Now()
	// Client failures are reported in the records, never as errors.
	recs, _ := bench.Sweep(c.w.lanes, c.w.circuits, func(_ int, circuit string) (jobRec, error) {
		return c.run(circuit, round), nil
	})
	return recs, time.Since(t0).Seconds()
}

// run submits one job and follows it to its terminal state. Round -1 is
// the tiny warm-up job.
func (c *jobClient) run(circuit string, round int) jobRec {
	j := jobRec{circuit: circuit, round: round}
	spec := daemon.JobSpec{Benchmark: circuit, KeyBits: c.w.keyBits, Scale: c.w.scale, Trials: 1,
		Seed: secretSeed(c.seed, round) - 1}
	if round < 0 {
		spec = daemon.JobSpec{Benchmark: circuit, KeyBits: 8, Scale: 32, Trials: 1, Seed: 1}
	}
	body, _ := json.Marshal(spec)
	from := c.mon.lastSeq.Load()
	j.post = time.Now()
	var accepted daemon.JobStatus
	code, err := c.do(http.MethodPost, "/jobs", body, &accepted)
	j.accepted = time.Now()
	switch {
	case err != nil:
		j.fail = err.Error()
		return j
	case code == http.StatusServiceUnavailable:
		j.rejected = true
		j.fail = "refused (503)"
		return j
	case code != http.StatusAccepted:
		j.fail = fmt.Sprintf("POST /jobs: status %d", code)
		return j
	}
	j.id = accepted.ID
	if err := c.follow(&j, from); err != nil {
		j.fail = err.Error()
		return j
	}
	if code, err := c.do(http.MethodGet, "/jobs/"+j.id, nil, &j.status); err != nil || code != http.StatusOK {
		j.fail = fmt.Sprintf("GET /jobs/%s: status %d: %v", j.id, code, err)
	}
	return j
}

// follow reads /events?job=<id>, resuming after sequence number from, up
// to the job's terminal lifecycle event.
func (c *jobClient) follow(j *jobRec, from uint64) error {
	ctx, cancel := context.WithCancel(c.ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/events?job="+j.id, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Last-Event-ID", strconv.FormatUint(from, 10))
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	dec := stream.NewDecoder(resp.Body)
	for {
		ev, err := dec.Next()
		if err != nil {
			return fmt.Errorf("job %s stream: %w", j.id, err)
		}
		if ev.Type == stream.TypeHello {
			j.gap, _ = ev.Data["gap"].(bool)
			continue
		}
		if ev.Seq == 0 {
			continue
		}
		j.events++
		if ev.Type != stream.TypeJob || ev.Job != j.id {
			continue
		}
		switch ev.Data["state"] {
		case daemon.StateDone, daemon.StateFailed, daemon.StateEvicted:
			j.terminal = time.Now()
			return nil
		}
	}
}

// do sends one API request and decodes a JSON answer into v.
func (c *jobClient) do(method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequestWithContext(c.ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// verifyJob applies the attack correctness gate to a finished job's bundle
// and checks that it attacked the secret its spec asked for.
func verifyJob(j *jobRec, t *target, seed int64) string {
	if j.status.State != daemon.StateDone || j.status.Error != "" {
		return fmt.Sprintf("job %s ended %s %s", j.id, j.status.State, j.status.Error)
	}
	var doc flight.ResultDoc
	if err := readJSON(filepath.Join(j.status.Bundle, flight.ResultFile), &doc); err != nil {
		return err.Error()
	}
	if len(doc.Trials) != 1 {
		return fmt.Sprintf("job %s: %d trials recorded", j.id, len(doc.Trials))
	}
	j.trial = doc.Trials[0]
	chip, err := dynunlock.Fabricate(t.design, secretSeed(seed, j.round))
	if err != nil {
		return err.Error()
	}
	tr := j.trial
	switch {
	case tr.SecretSeed != chip.SecretSeed().String():
		return "job attacked another secret than requested"
	case tr.Stopped:
		return "stopped: " + tr.StopReason
	case !tr.Converged:
		return "did not converge"
	case !tr.Exact:
		return "candidate set is not exact"
	case !tr.Verified:
		return "candidates failed verification"
	case !tr.Success:
		return "secret seed not among the candidates"
	}
	return ""
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// trialCounts is countsOf for a recorded trial.
func trialCounts(t flight.TrialRecord) counts {
	return counts{t.Iterations, t.Queries, toSatStats(t.Solver), t.EncodeVars, t.EncodeClauses}
}

func toSatStats(s flight.SolverStats) sat.Stats {
	return sat.Stats{
		Decisions: s.Decisions, Propagations: s.Propagations, Conflicts: s.Conflicts,
		Restarts: s.Restarts, Learnt: s.Learnt, Removed: s.Removed,
		XorPropagations: s.XorPropagations, XorConflicts: s.XorConflicts,
		SimplifyCalls: s.SimplifyCalls, SimplifyRemoved: s.SimplifyRemoved,
		SimplifyStrengthened: s.SimplifyStrength,
	}
}

// traceLine is one trace.jsonl line of a job bundle.
type traceLine struct {
	Ev       string            `json:"ev"`
	T        time.Time         `json:"t"`
	Span     string            `json:"span"`
	DurMS    float64           `json:"dur_ms"`
	Counters map[string]uint64 `json:"counters"`
}

// readBundleTrace replays a job bundle's trace, DIP and oracle
// transcripts into a stageLog.
func readBundleTrace(dir string) (*stageLog, error) {
	bt := newStageLog()
	err := eachLine(filepath.Join(dir, flight.TraceFile), func(b []byte) error {
		var l traceLine
		if err := json.Unmarshal(b, &l); err != nil {
			return err
		}
		bt.observe(trace.Event{Type: l.Ev, Span: l.Span, Time: l.T,
			Duration: time.Duration(l.DurMS * float64(time.Millisecond)), Counters: l.Counters})
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = eachLine(filepath.Join(dir, flight.DIPsFile), func(b []byte) error {
		var r flight.DIPRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		bt.dipSolve += time.Duration(r.SolveMS * float64(time.Millisecond))
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = eachLine(filepath.Join(dir, flight.OracleFile), func(b []byte) error {
		var r flight.SessionRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		bt.sessions++
		bt.cycles += r.Cycles
		return nil
	})
	return &bt, err
}

func eachLine(path string, fn func([]byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if err := fn(sc.Bytes()); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return sc.Err()
}

// traceJob adds one traced job's layer rows to t and records its spans:
// the client's view (submit to terminal event) as the root and the
// bundle's stage spans below it.
func traceJob(j *jobRec, spans *spanLog, t *layerTable) error {
	bt, err := readBundleTrace(j.status.Bundle)
	if err != nil {
		return err
	}
	rows := bt.rows(0)
	_, started, finished := j.jobTimes()
	var staged time.Duration
	for _, d := range bt.stage {
		staged += d
	}
	rows[rowJobExtra] = finished.Sub(started).Seconds() - staged.Seconds()
	for r, v := range rows {
		t.rows[r] += v
	}
	t.attacks++
	t.dipLoop += bt.stage["dip_loop"].Seconds()
	addStats(&t.stats, toSatStats(j.trial.Solver))

	id := spans.newAttack()
	root := spans.add(id, 0, "job", fmt.Sprintf("%s#%d %s", j.circuit, j.round, j.id), j.post, j.terminal)
	spans.add(id, root, "daemon.submit", "", j.post, j.accepted)
	run := spans.add(id, root, "daemon.run", "", started, finished)
	for _, s := range bt.spans {
		spans.add(id, run, s.name, "", s.start, s.end)
	}
	return nil
}

// bundleCounts sums the first round's oracle sessions, cycles and AIG
// nodes from the job bundles.
func bundleCounts(jobs []jobRec) (sessions, cycles, aigNodes uint64, err error) {
	for _, j := range jobs {
		if j.fail != "" {
			continue
		}
		bt, err := readBundleTrace(j.status.Bundle)
		if err != nil {
			return 0, 0, 0, err
		}
		sessions += bt.sessions
		cycles += bt.cycles
		aigNodes += bt.counters["aig_nodes"]
	}
	return sessions, cycles, aigNodes, nil
}

// setDaemonMetrics records the service-plane per-layer metrics over every
// job of the run.
func setDaemonMetrics(out *runOutput, c *jobClient, jobs []*jobRec, rounds []float64, lanes int) {
	var submit, queue, run, overhead, lag, kb []float64
	var events, gaps, rejected int
	var runSum float64
	for _, j := range jobs {
		if j.rejected {
			rejected++
		}
		if j.fail != "" {
			continue
		}
		created, started, finished := j.jobTimes()
		submit = append(submit, j.accepted.Sub(j.post).Seconds()*1e3)
		queue = append(queue, started.Sub(created).Seconds())
		run = append(run, finished.Sub(started).Seconds())
		overhead = append(overhead, finished.Sub(started).Seconds()-j.trial.Seconds)
		lag = append(lag, j.terminal.Sub(finished).Seconds()*1e3)
		kb = append(kb, float64(dirSize(j.status.Bundle))/1024)
		events += j.events
		if j.gap {
			gaps++
		}
		runSum += finished.Sub(started).Seconds()
	}
	n := len(submit)
	out.set("daemon.submit_ms_p50", median(submit), n)
	out.set("daemon.queue_s_p50", median(queue), n)
	out.set("daemon.run_s_p50", median(run), n)
	out.set("daemon.job_overhead_s_p50", median(overhead), n)
	out.set("daemon.rejected", float64(rejected), len(jobs))
	out.set("stream.events_per_job", ratio(float64(events), float64(n)), n)
	out.set("stream.terminal_lag_ms_p50", median(lag), n)
	out.set("stream.gaps", float64(gaps)+float64(c.mon.gaps.Load()), n)
	out.set("flight.bundle_kb_per_job", sum(kb)/float64(max(n, 1)), n)
	out.set("sweep.efficiency", ratio(runSum, float64(lanes)*sum(rounds)), len(rounds))

	var scrapes []float64
	series := 0
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		body, err := c.get("/metrics")
		if err != nil {
			continue
		}
		scrapes = append(scrapes, time.Since(t0).Seconds()*1e3)
		series = 0
		for _, line := range strings.Split(body, "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				series++
			}
		}
	}
	out.set("metrics.scrape_ms", median(scrapes), len(scrapes))
	out.set("metrics.series", float64(series), 1)
}

func (c *jobClient) get(path string) (string, error) {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if info, err := d.Info(); err == nil && !d.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}
