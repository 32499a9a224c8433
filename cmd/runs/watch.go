package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dynunlock/internal/metrics"
	"dynunlock/internal/stream"
)

// cmdWatch follows a live run's /events feed (see internal/stream and
// internal/metrics.ServeBus), rendering each event as one terminal line.
// Each delta (a run's periodic metrics sample) prints as the same line
// -progress prints (metrics.ProgressLine), and the stream's terminal
// "result" event with scope "experiment" ends the watch with exit 0. With
// -job the terminal condition is the dynunlockd job's own lifecycle
// instead: "done" exits 0, "failed"/"evicted" exit 1 — the experiment
// result is rendered but does not end the watch, since the job's bundle
// only closes (and its state only settles) afterwards.
//
// Transient disconnects of an established stream — a dropped connection,
// a proxy timeout, a server blip — auto-reconnect with bounded exponential
// backoff, resuming from the last seen sequence number via the SSE
// Last-Event-ID header (the bus replays from its resume ring; a "gap"
// hello flags evicted events). The first connection must succeed: a
// refused or non-SSE endpoint is a configuration error, and a genuinely
// corrupt frame always exits 3 immediately — reconnecting cannot repair a
// stream that violates the wire grammar.
func cmdWatch(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	retries := fs.Int("retries", 5, "max consecutive reconnect attempts after a transient disconnect")
	wait := fs.Duration("retry-wait", 500*time.Millisecond, "initial reconnect backoff (doubles per consecutive attempt)")
	job := fs.String("job", "", "follow one dynunlockd job: filter the feed to its envelopes and exit when it reaches a terminal state")
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: runs watch [-retries N] [-retry-wait D] [-job ID] <addr>  (e.g. 127.0.0.1:9090 or http://host:9090/events)")
		return exitUsage
	}
	w := &watcher{
		url:     watchURL(fs.Arg(0)),
		job:     *job,
		retries: *retries,
		wait:    *wait,
		stdout:  stdout,
		stderr:  stderr,
		sleep:   time.Sleep,
	}
	if w.job != "" {
		sep := "?"
		if strings.Contains(w.url, "?") {
			sep = "&"
		}
		w.url += sep + "job=" + w.job
	}
	return w.run()
}

// watcher is the reconnecting /events client: it tracks the last
// bus-assigned sequence number across connections and resumes from it.
type watcher struct {
	url     string
	job     string // when set, a terminal job lifecycle event ends the watch
	retries int
	wait    time.Duration
	lastSeq uint64
	stdout  io.Writer
	stderr  io.Writer
	sleep   func(time.Duration) // test seam
}

func (w *watcher) run() int {
	attempt := 0
	connectedOnce := false
	for {
		body, code := w.connect()
		if body != nil {
			connectedOnce = true
			code2, retryable, progressed := w.follow(body)
			body.Close()
			if !retryable {
				return code2
			}
			if progressed {
				// The stream moved before breaking: treat the blip as fresh
				// rather than part of a consecutive failure run.
				attempt = 0
			}
		} else if !connectedOnce {
			// Nothing to resume — the endpoint was never a live stream.
			return code
		}
		attempt++
		if attempt > w.retries {
			fmt.Fprintf(w.stderr, "runs: watch: giving up after %d reconnect attempt(s)\n", w.retries)
			return exitCorrupt
		}
		delay := w.wait << uint(attempt-1)
		fmt.Fprintf(w.stderr, "runs: watch: stream interrupted; reconnecting in %s (attempt %d/%d, resume after seq %d)\n",
			delay, attempt, w.retries, w.lastSeq)
		w.sleep(delay)
	}
}

// connect opens one SSE connection, resuming from lastSeq when set. A nil
// body means the connection failed; code carries the exit classification.
func (w *watcher) connect() (io.ReadCloser, int) {
	req, err := http.NewRequest(http.MethodGet, w.url, nil)
	if err != nil {
		fmt.Fprintf(w.stderr, "runs: watch %s: %v\n", w.url, err)
		return nil, exitCorrupt
	}
	if w.lastSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(w.lastSeq, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintf(w.stderr, "runs: watch %s: %v\n", w.url, err)
		return nil, exitCorrupt
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(w.stderr, "runs: watch %s: %s\n", w.url, resp.Status)
		resp.Body.Close()
		return nil, exitCorrupt
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		fmt.Fprintf(w.stderr, "runs: watch %s: not an event stream (Content-Type %q)\n", w.url, ct)
		resp.Body.Close()
		return nil, exitCorrupt
	}
	return resp.Body, exitOK
}

// follow renders one connection's events until the terminal result, a
// broken read, or a corrupt frame. retryable distinguishes transient
// breaks (EOF before the run finished, network read errors) from grammar
// violations; progressed reports whether any sequenced event arrived.
func (w *watcher) follow(r io.Reader) (code int, retryable, progressed bool) {
	dec := stream.NewDecoder(r)
	for {
		ev, err := dec.Next()
		if err == io.EOF {
			fmt.Fprintln(w.stderr, "runs: watch: stream ended before the run finished")
			return exitCorrupt, true, progressed
		}
		if err != nil {
			fmt.Fprintf(w.stderr, "runs: watch: %v\n", err)
			return exitCorrupt, !errors.Is(err, stream.ErrCorrupt), progressed
		}
		if ev.Seq > 0 {
			w.lastSeq = ev.Seq
			progressed = true
		}
		// The experiment result ends a plain watch; in -job mode the job
		// is not terminal until the daemon says so (its bundle closes and
		// the lifecycle event lands after the result), so keep following.
		if done := renderEvent(w.stdout, ev); done && w.job == "" {
			return exitOK, false, progressed
		}
		// Watching one job, its lifecycle is the terminal condition: done
		// exits 0, failed/evicted exit 1 (a job evicted mid-run will not
		// produce its experiment result event).
		if w.job != "" && ev.Type == stream.TypeJob && ev.Job == w.job {
			switch state, _ := ev.Data["state"].(string); state {
			case "done":
				return exitOK, false, progressed
			case "failed", "evicted":
				fmt.Fprintf(w.stderr, "runs: watch: job %s %s\n", w.job, state)
				return exitMismatch, false, progressed
			}
		}
	}
}

// renderEvent prints one line per event and reports whether the stream
// reached its terminal experiment result.
func renderEvent(w io.Writer, ev stream.Event) (done bool) {
	switch ev.Type {
	case stream.TypeHello:
		line := fmt.Sprintf("watch: connected proto=%v last_seq=%v", ev.Data["proto"], ev.Data["last_seq"])
		if gap, _ := ev.Data["gap"].(bool); gap {
			line += " (gap: ring evicted events before our resume point)"
		}
		fmt.Fprintln(w, line)
	case stream.TypeSnapshot:
		fmt.Fprintf(w, "snapshot: iters=%.0f conflicts=%.0f props=%.0f cycles=%.0f\n",
			sumFamily(ev.Data, metrics.MetricAttackDIPs),
			sumFamily(ev.Data, metrics.MetricSatConflicts),
			sumFamily(ev.Data, metrics.MetricSatPropagations),
			sumFamily(ev.Data, metrics.MetricOracleCycles))
	case stream.TypeDelta:
		fmt.Fprintln(w, metrics.ProgressLine(ev.Data))
	case stream.TypeDIP:
		fmt.Fprintln(w, dipLine(ev.Data))
	case stream.TypeSpan:
		fmt.Fprintf(w, "span: %v %sms\n", ev.Data["span"], numStr(ev.Data["dur_ms"]))
	case stream.TypeJob:
		line := fmt.Sprintf("job: %v state=%v", ev.Data["job"], ev.Data["state"])
		if rf, ok := ev.Data["resumed_from"].(string); ok && rf != "" {
			line += " resumed_from=" + rf
		}
		if msg, ok := ev.Data["error"].(string); ok && msg != "" {
			line += " error=" + strconv.Quote(msg)
		}
		fmt.Fprintln(w, line)
	case stream.TypeResult:
		scope, _ := ev.Data["scope"].(string)
		if scope == "experiment" {
			fmt.Fprintf(w, "result: experiment done trials=%v succeeded=%v stopped=%v\n",
				ev.Data["trials_run"], ev.Data["succeeded"], ev.Data["stopped"])
			return true
		}
		fmt.Fprintf(w, "result: trial done iterations=%v candidates=%v converged=%v verified=%v\n",
			ev.Data["iterations"], ev.Data["candidates"], ev.Data["converged"], ev.Data["verified"])
	}
	return false
}

// dipLine is the watch rendering of one DIP: the iteration's solver
// work, then its search anatomy when present.
func dipLine(d map[string]any) string {
	var b strings.Builder
	fmt.Fprintf(&b, "dip: trial=%v iter=%v conflicts=%v solve_ms=%s",
		d["trial"], d["iteration"], d["conflicts"], numStr(d["solve_ms"]))
	if _, ok := d["difficulty"]; ok {
		fmt.Fprintf(&b, " difficulty=%s lbd=%s restarts=%v xor=%s",
			numStr(d["difficulty"]), numStr(d["lbd_mean"]), d["restarts"], numStr(d["xor_share"]))
	}
	return b.String()
}

// sumFamily totals a snapshot metric family: the bare series name or any
// labeled child ("name{label=...}").
func sumFamily(data map[string]any, name string) float64 {
	var total float64
	for k, v := range data {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		if f, ok := v.(float64); ok {
			total += f
		}
	}
	return total
}

// numStr renders a JSON number compactly; non-numbers render as "?".
func numStr(v any) string {
	f, ok := v.(float64)
	if !ok {
		return "?"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", f), "0"), ".")
}

// watchURL normalizes a watch target: a bare host:port gets the scheme and
// the /events path; explicit URLs pass through.
func watchURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	if !strings.HasSuffix(addr, "/events") {
		addr = strings.TrimRight(addr, "/") + "/events"
	}
	return addr
}
