// Package daemon is the attack-as-a-service core behind cmd/dynunlockd:
// a long-running process that accepts DynUnlock attack jobs over a JSON
// HTTP API, runs them on a bounded worker pool with admission control,
// and exposes one shared observability plane — Prometheus metrics for
// the daemon itself, a multiplexed SSE event feed with per-job
// filtering, and a flight-recorder bundle per job that a crashed or
// evicted job can later be resumed from.
//
// One registry, one bus, one listener serve every job:
//
//   - Each job's dynunlock_* series live in a registry of its own, which
//     the job samples into the "delta" events of its feed and the closing
//     sample of its bundle's trace.jsonl, and which is dropped when the
//     job ends. The daemon's registry holds only the dynunlockd_jobs_*
//     series and the process gauges, so /metrics does not grow with the
//     job history.
//   - Every stream event a job publishes is stamped with its job ID via
//     the bus's job view (stream.Bus.WithJob), the one per-job tag;
//     /events aggregates all jobs under one strictly increasing sequence
//     and /events?job=<id> filters down to one.
//   - Job lifecycle transitions (queued → admitted → running →
//     done/failed/evicted, plus draining during shutdown) are published
//     as typed "job" stream events and mirrored in dynunlockd_jobs_*
//     gauges and counters.
package daemon

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"dynunlock/internal/metrics"
	"dynunlock/internal/stream"
)

// Daemon-plane metric families, the series of the daemon's registry.
const (
	// MetricJobsQueueDepth is the number of jobs admitted to the queue
	// and not yet picked up by a worker.
	MetricJobsQueueDepth = "dynunlockd_jobs_queue_depth"
	// MetricJobsInflight is the number of jobs currently executing.
	MetricJobsInflight = "dynunlockd_jobs_inflight"
	// MetricJobsSubmitted counts accepted submissions.
	MetricJobsSubmitted = "dynunlockd_jobs_submitted_total"
	// MetricJobsRejected counts submissions refused by admission control,
	// labeled reason="queue_full" | "draining" | "invalid".
	MetricJobsRejected = "dynunlockd_jobs_rejected_total"
	// MetricJobsCompleted counts finished jobs labeled
	// status="done" | "failed" | "evicted".
	MetricJobsCompleted = "dynunlockd_jobs_completed_total"
	// MetricJobsReplayedSessions counts oracle sessions answered from a
	// resumed job's transcript prefix instead of live simulation.
	MetricJobsReplayedSessions = "dynunlockd_jobs_replayed_sessions_total"
)

// Admission errors; the HTTP layer maps both to 503.
var (
	ErrQueueFull = errors.New("daemon: job queue full")
	ErrDraining  = errors.New("daemon: draining, not accepting jobs")
)

// Config sizes the daemon.
type Config struct {
	// Addr is the listen address of the combined API + observability
	// plane (e.g. ":9309", "127.0.0.1:0").
	Addr string
	// DataDir is where per-job flight bundles live (DataDir/<job-id>/).
	DataDir string
	// Workers is the attack worker pool size (default 2).
	Workers int
	// QueueDepth bounds jobs waiting for a worker; submissions beyond it
	// are rejected with 503 (default 8).
	QueueDepth int
	// Log, when non-nil, receives daemon progress lines.
	Log io.Writer
}

// Daemon owns the worker pool, the job table, and the shared
// observability plane. Create with New, stop with Shutdown.
type Daemon struct {
	cfg Config
	reg *metrics.Registry
	bus *stream.Bus
	srv *metrics.Server
	log io.Writer

	queue chan *Job
	stop  chan struct{}
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int
	queued   int
	draining bool
}

// New builds and starts a daemon: the data directory is created, the
// registry and event bus come up, the HTTP plane binds cfg.Addr (with
// the /jobs API registered on the same mux as /metrics, /events,
// /healthz, /readyz), and the worker pool starts pulling jobs.
func New(cfg Config) (*Daemon, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.DataDir == "" {
		cfg.DataDir = "dynunlockd-data"
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: data dir: %w", err)
	}
	d := &Daemon{
		cfg:   cfg,
		reg:   metrics.NewRegistry(),
		bus:   stream.NewBus(),
		log:   cfg.Log,
		queue: make(chan *Job, cfg.QueueDepth),
		stop:  make(chan struct{}),
		jobs:  make(map[string]*Job),
	}
	// Pre-create the daemon-plane families so a scrape before the first
	// job still shows them at zero.
	d.reg.Gauge(MetricJobsQueueDepth).Set(0)
	d.reg.Gauge(MetricJobsInflight).Set(0)
	d.reg.Counter(MetricJobsSubmitted)
	srv, err := metrics.ServeBus(cfg.Addr, d.reg, d.bus)
	if err != nil {
		return nil, err
	}
	d.srv = srv
	srv.Handle("POST /jobs", http.HandlerFunc(d.handleSubmit))
	srv.Handle("GET /jobs", http.HandlerFunc(d.handleList))
	srv.Handle("GET /jobs/{id}", http.HandlerFunc(d.handleGet))
	srv.Handle("DELETE /jobs/{id}", http.HandlerFunc(d.handleCancel))
	for i := 0; i < cfg.Workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	return d, nil
}

// Addr returns the bound listen address (useful with ":0").
func (d *Daemon) Addr() string { return d.srv.Addr() }

// Registry exposes the shared registry (tests assert on it directly).
func (d *Daemon) Registry() *metrics.Registry { return d.reg }

// enqueue admits a resolved spec as a new job, assigning its ID. It
// returns ErrDraining once shutdown has begun and ErrQueueFull when the
// queue is at capacity — admission control instead of unbounded buffering.
func (d *Daemon) enqueue(spec JobSpec, resumedFrom string) (*Job, error) {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		d.reg.Counter(MetricJobsRejected, "reason", "draining").Inc()
		return nil, ErrDraining
	}
	if d.queued >= d.cfg.QueueDepth {
		d.mu.Unlock()
		d.reg.Counter(MetricJobsRejected, "reason", "queue_full").Inc()
		return nil, ErrQueueFull
	}
	d.nextID++
	j := &Job{
		ID:          fmt.Sprintf("job-%04d", d.nextID),
		Spec:        spec,
		ResumedFrom: resumedFrom,
		state:       StateQueued,
		created:     time.Now(),
	}
	d.jobs[j.ID] = j
	d.order = append(d.order, j.ID)
	d.queued++
	d.mu.Unlock()

	d.reg.Counter(MetricJobsSubmitted).Inc()
	d.reg.Gauge(MetricJobsQueueDepth).Add(1)
	d.publishState(j, StateQueued, nil)
	fmt.Fprintf(d.log, "dynunlockd: %s queued (%s k=%d)\n", j.ID, spec.Benchmark, spec.KeyBits)
	// The send cannot block: queued (guarded above) bounds channel
	// occupancy, and the queue channel is never closed.
	d.queue <- j
	return j, nil
}

// Job returns the job with the given ID, or nil.
func (d *Daemon) Job(id string) *Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.jobs[id]
}

// Jobs returns every job in submission order.
func (d *Daemon) Jobs() []*Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Job, 0, len(d.order))
	for _, id := range d.order {
		out = append(out, d.jobs[id])
	}
	return out
}

// Cancel evicts a queued job or cancels a running one (which then
// finishes as evicted at the solver's next checkpoint). Terminal jobs
// return an error; unknown IDs return os.ErrNotExist.
func (d *Daemon) Cancel(id string) error {
	j := d.Job(id)
	if j == nil {
		return os.ErrNotExist
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued, StateAdmitted:
		j.cancelled = true
		j.mu.Unlock()
		return nil
	case StateRunning, StateDraining:
		j.cancelled = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		state := j.state
		j.mu.Unlock()
		return fmt.Errorf("daemon: job %s already %s", id, state)
	}
}

// worker pulls jobs until Shutdown closes the stop channel.
func (d *Daemon) worker() {
	defer d.wg.Done()
	for {
		select {
		case j := <-d.queue:
			d.dequeued()
			d.runJob(j)
		case <-d.stop:
			return
		}
	}
}

// dequeued moves the queue-depth accounting when a job leaves the queue.
func (d *Daemon) dequeued() {
	d.mu.Lock()
	d.queued--
	d.mu.Unlock()
	d.reg.Gauge(MetricJobsQueueDepth).Add(-1)
}

// evictQueued empties the queue, finishing every waiting job as evicted.
func (d *Daemon) evictQueued() {
	for {
		select {
		case j := <-d.queue:
			d.dequeued()
			d.finishJob(j, StateEvicted, "evicted at shutdown")
		default:
			return
		}
	}
}

// Shutdown drains the daemon gracefully, in the order a load balancer
// expects: admission closes first (/readyz flips to 503, POST /jobs
// rejects with 503), queued jobs are evicted, running jobs are marked
// draining and allowed to finish, and finally the HTTP plane shuts down
// via metrics.Server.Shutdown so live SSE clients get their buffered
// events plus one terminal snapshot frame before the streams end.
func (d *Daemon) Shutdown(grace time.Duration) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return nil
	}
	d.draining = true
	d.mu.Unlock()
	d.srv.SetDraining()
	fmt.Fprintf(d.log, "dynunlockd: draining\n")

	// Evict everything still waiting for a worker.
	d.evictQueued()
	// Mark in-flight jobs draining (they run to completion).
	for _, j := range d.Jobs() {
		j.mu.Lock()
		running := j.state == StateRunning
		if running {
			j.state = StateDraining
		}
		j.mu.Unlock()
		if running {
			d.publishState(j, StateDraining, nil)
		}
	}
	close(d.stop)
	d.wg.Wait()
	// A submission that passed the draining check concurrently with this
	// shutdown may have landed in the queue after the first sweep, with
	// no worker left to pick it up; evict the stragglers too.
	d.evictQueued()
	fmt.Fprintf(d.log, "dynunlockd: jobs drained, closing HTTP plane\n")
	return d.srv.Shutdown(grace)
}

// Close tears the daemon down immediately: running jobs are cancelled
// and the listener closes without the SSE drain. Prefer Shutdown.
func (d *Daemon) Close() error {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	for _, j := range d.Jobs() {
		d.Cancel(j.ID)
	}
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	d.wg.Wait()
	return d.srv.Close()
}
