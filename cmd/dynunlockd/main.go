// Command dynunlockd is the DynUnlock attack-as-a-service daemon: a
// long-running process that accepts attack jobs over a JSON HTTP API and
// runs them on a bounded worker pool, with one shared observability
// plane for every job.
//
// Usage:
//
//	dynunlockd -addr :9309 -data ./runs -workers 2
//
// Submit and follow a job:
//
//	curl -d '{"benchmark":"s5378","keyBits":128}' localhost:9309/jobs
//	curl localhost:9309/jobs/job-0001
//	runs watch -job job-0001 localhost:9309
//
// Endpoints on one listener:
//
//	POST/GET/DELETE /jobs[/{id}]   job API (submit, list, status, cancel)
//	/metrics                       Prometheus exposition: the pool's
//	                               dynunlockd_jobs_* families and the
//	                               process gauges (a job's own series
//	                               travel in its feed's delta events)
//	/events[?job=ID]               SSE feed: aggregate or single-job
//	/healthz /readyz               liveness / drain-aware readiness
//	/debug/pprof/                  pprof profiles
//
// Every job records a durable flight bundle under -data/<job-id>/; a job
// cancelled or killed mid-run leaves a resumable prefix, and submitting
// {"resume":"<job-id>"} starts a new job that replays that prefix before
// continuing live.
//
// SIGTERM/SIGINT drains gracefully: /readyz flips to 503 and new
// submissions are rejected 503, queued jobs are evicted, running jobs
// finish, and live SSE clients receive their buffered events plus one
// final snapshot frame before the process exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dynunlock/internal/daemon"
)

func main() {
	var (
		addr    = flag.String("addr", ":9309", "listen address for the job API and observability plane")
		dataDir = flag.String("data", "dynunlockd-data", "directory for per-job flight bundles")
		workers = flag.Int("workers", 2, "attack worker pool size")
		queue   = flag.Int("queue", 8, "max queued jobs before submissions are rejected 503")
		grace   = flag.Duration("grace", 10*time.Second, "HTTP drain window after jobs finish on SIGTERM")
		verbose = flag.Bool("v", true, "log job lifecycle to stderr")
	)
	flag.Parse()

	log := os.Stderr
	if !*verbose {
		devnull, _ := os.Open(os.DevNull)
		log = devnull
	}
	d, err := daemon.New(daemon.Config{
		Addr:       *addr,
		DataDir:    *dataDir,
		Workers:    *workers,
		QueueDepth: *queue,
		Log:        log,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynunlockd: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "dynunlockd: serving jobs on http://%s/jobs (metrics: /metrics, live: /events)\n", d.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	s := <-sig
	fmt.Fprintf(os.Stderr, "dynunlockd: %v: draining (queued jobs evict, running jobs finish)\n", s)
	if err := d.Shutdown(*grace); err != nil {
		fmt.Fprintf(os.Stderr, "dynunlockd: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "dynunlockd: drained")
}
