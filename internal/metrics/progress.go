package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynunlock/internal/stream"
	"dynunlock/internal/trace"
)

// DefaultProgressInterval is the snapshot cadence selected by a bare
// -progress flag.
const DefaultProgressInterval = 2 * time.Second

// Progress periodically renders a one-line snapshot of the registry —
// DIP iterations, conflict and propagation rates, learnt-clause DB size,
// oracle scan cycles, RSS — to a writer (normally stderr) and emits the
// same snapshot as a "snapshot" trace event, so a JSONL trace artifact
// captures both stage spans and a time series of the run.
type Progress struct {
	reg      *Registry
	w        io.Writer
	tr       *trace.Tracer
	interval time.Duration
	jsonMode bool
	bus      *stream.Bus
	scope    []string // label pairs restricting the sums (per-job sampler)

	stop     chan struct{}
	done     chan struct{}
	mu       sync.Mutex
	started  bool
	lastT    time.Time
	lastConf float64
	lastProp float64
}

// NewProgress builds a reporter over reg, emitting every interval to w
// (nil w discards the text line) and to tr (the nil tracer discards the
// snapshot events). Call Start to begin and Stop to end; Stop emits one
// final snapshot so short runs still record at least one sample.
func NewProgress(reg *Registry, interval time.Duration, w io.Writer, tr *trace.Tracer) *Progress {
	if interval <= 0 {
		interval = DefaultProgressInterval
	}
	if w == nil {
		w = io.Discard
	}
	return &Progress{
		reg:      reg,
		w:        w,
		tr:       tr,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// SetJSON switches the text output from the human "progress:" line to
// one stream-schema "delta" event per line (the JSON envelope of
// stream.Event, parseable by stream.ParseEvent), so headless logs and
// the SSE feed share one parser. Call before Start. Nil-safe.
func (p *Progress) SetJSON(on bool) {
	if p == nil {
		return
	}
	p.jsonMode = on
}

// SetScope restricts every sum and quantile behind the snapshot to
// series carrying the given label pairs (Registry.Sum) — a
// per-job sampler in the daemon scopes to ("job", id) so concurrent
// jobs sharing one registry do not bleed into each other's delta
// events. Call before Start. Nil-safe.
func (p *Progress) SetScope(labelPairs ...string) {
	if p == nil {
		return
	}
	p.scope = labelPairs
}

// AttachStream publishes each snapshot to b as a "delta" stream event in
// addition to the text line and trace event; the periodic Progress
// sample is the feed's only delta source (the trace adapter deliberately
// drops "snapshot" trace events to avoid double delivery). A nil bus is
// a no-op. Call before Start. Nil-safe.
func (p *Progress) AttachStream(b *stream.Bus) {
	if p == nil {
		return
	}
	p.bus = b
}

// Start launches the reporting goroutine. Nil-safe; starting twice is a
// no-op.
func (p *Progress) Start() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.lastT = time.Now()
	p.mu.Unlock()
	go p.run()
}

// Stop halts the reporter, emitting one final snapshot. Nil-safe;
// stopping an unstarted or already-stopped reporter is a no-op.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	p.mu.Lock()
	started := p.started
	p.started = false
	p.mu.Unlock()
	if !started {
		return
	}
	close(p.stop)
	<-p.done
}

func (p *Progress) run() {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.emit()
		case <-p.stop:
			p.emit()
			return
		}
	}
}

// sum totals one family within the reporter's label scope.
func (p *Progress) sum(name string) (float64, bool) {
	return p.reg.Sum(name, p.scope...)
}

// quantile estimates one quantile within the reporter's label scope.
func (p *Progress) quantile(name string, q float64) (float64, bool) {
	return p.reg.QuantileOf(name, q, p.scope...)
}

// emit renders one snapshot line and trace event.
func (p *Progress) emit() {
	now := time.Now()
	sum := func(name string) float64 { v, _ := p.sum(name); return v }
	iters := sum(MetricAttackDIPs)
	conflicts := sum(MetricSatConflicts)
	props := sum(MetricSatPropagations)
	learntDB := sum(MetricSatLearntDB)
	cycles := sum(MetricOracleCycles)
	rss, rssOK := ReadRSS()

	p.mu.Lock()
	dt := now.Sub(p.lastT).Seconds()
	var confRate, propRate float64
	if dt > 0 {
		confRate = (conflicts - p.lastConf) / dt
		propRate = (props - p.lastProp) / dt
	}
	p.lastT, p.lastConf, p.lastProp = now, conflicts, props
	p.mu.Unlock()

	line := fmt.Sprintf("progress: iters=%.0f conflicts=%s (%s/s) props=%s (%s/s) learnt=%.0f cycles=%s",
		iters, humanCount(conflicts), humanCount(confRate),
		humanCount(props), humanCount(propRate),
		learntDB, humanCount(cycles))
	fields := map[string]any{
		"iterations":      iters,
		"conflicts":       conflicts,
		"conflicts_per_s": confRate,
		"propagations":    props,
		"props_per_s":     propRate,
		"learnt_db":       learntDB,
		"oracle_cycles":   cycles,
	}
	if rssOK {
		line += " rss=" + humanBytes(rss)
		fields["rss_bytes"] = rss
	}
	// Per-DIP SAT-call latency percentiles, estimated from the fixed
	// histogram buckets (Registry.QuantileOf); present once a DIP-loop
	// solve has been observed.
	if n, ok := p.sum(MetricAttackDIPSolveSec); ok && n > 0 {
		p50, _ := p.quantile(MetricAttackDIPSolveSec, 0.50)
		p95, _ := p.quantile(MetricAttackDIPSolveSec, 0.95)
		p99, _ := p.quantile(MetricAttackDIPSolveSec, 0.99)
		line += fmt.Sprintf(" solve_p50=%s p95=%s p99=%s",
			time.Duration(p50*float64(time.Second)).Round(time.Microsecond),
			time.Duration(p95*float64(time.Second)).Round(time.Microsecond),
			time.Duration(p99*float64(time.Second)).Round(time.Microsecond))
		fields["solve_p50_s"] = p50
		fields["solve_p95_s"] = p95
		fields["solve_p99_s"] = p99
	}
	// Encode accounting (fields only: the text line predates these series
	// and stays stable for log scrapers; `runs watch` renders them).
	if ev, ok := p.sum(MetricEncodeVars); ok {
		fields["encode_vars"] = ev
	}
	if ec, ok := p.sum(MetricEncodeClauses); ok {
		fields["encode_clauses"] = ec
	}
	// Seed-space progress, when an insight tracker publishes it: the
	// certified rank over its analytic ceiling, the surviving seed-space
	// exponent, and the DIP-rate ETA (absent until the first rank gain).
	if rank, ok := p.sum(MetricInsightRank); ok {
		target, _ := p.sum(MetricInsightRankTarget)
		line += fmt.Sprintf(" rank=%.0f/%.0f", rank, target)
		fields["rank"] = rank
		fields["rank_target"] = target
		if seeds, ok := p.sum(MetricInsightSeedsLog2); ok {
			line += fmt.Sprintf(" seeds=2^%.0f", seeds)
			fields["seeds_log2"] = seeds
		}
		if eta, ok := p.sum(MetricInsightETA); ok && rank < target {
			line += " eta=" + time.Duration(eta*float64(time.Second)).Round(time.Second).String()
			fields["eta_s"] = eta
		}
	}
	if p.jsonMode {
		ev := stream.Event{Type: stream.TypeDelta, Time: now, Data: fields}
		if b, err := json.Marshal(ev); err == nil {
			b = append(b, '\n')
			p.w.Write(b)
		}
	} else {
		fmt.Fprintln(p.w, line)
	}
	// The bus publish assigns a live sequence number when subscribers are
	// attached; Publish is nil-safe and drops the event otherwise. The
	// fields map is shared by the line, the bus, and the trace event —
	// none of them mutate it.
	p.bus.Publish(stream.TypeDelta, fields)
	p.tr.Emit(trace.Event{Type: "snapshot", Fields: fields})
}

// humanCount renders a count compactly (1234 -> "1.2k").
func humanCount(v float64) string {
	switch {
	case v >= 1e9:
		return strconv.FormatFloat(v/1e9, 'f', 1, 64) + "G"
	case v >= 1e6:
		return strconv.FormatFloat(v/1e6, 'f', 1, 64) + "M"
	case v >= 1e3:
		return strconv.FormatFloat(v/1e3, 'f', 1, 64) + "k"
	default:
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
}

// humanBytes renders a byte count in binary units.
func humanBytes(v uint64) string {
	switch {
	case v >= 1<<30:
		return strconv.FormatFloat(float64(v)/(1<<30), 'f', 1, 64) + "GiB"
	case v >= 1<<20:
		return strconv.FormatFloat(float64(v)/(1<<20), 'f', 1, 64) + "MiB"
	case v >= 1<<10:
		return strconv.FormatFloat(float64(v)/(1<<10), 'f', 1, 64) + "KiB"
	default:
		return strconv.FormatUint(v, 10) + "B"
	}
}

// ReadRSS returns the process resident set size in bytes, read from
// /proc/self/statm. ok is false when RSS sampling is unavailable —
// non-Linux platforms, restricted procfs, or malformed statm content —
// and callers omit the value rather than publishing a misleading one.
func ReadRSS() (rss uint64, ok bool) {
	return readRSSFrom("/proc/self/statm")
}

// readRSSFrom parses a statm-format file: whitespace-separated fields
// with resident pages second. Split out from ReadRSS so the degraded
// paths are unit-testable without faking a platform.
func readRSSFrom(path string) (rss uint64, ok bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return pages * uint64(os.Getpagesize()), true
}

// ProgressFlag is a flag.Value for -progress[=mode]: a bare -progress
// selects DefaultProgressInterval; -progress=5s selects 5 seconds;
// -progress=json emits one stream-schema delta event per line instead of
// the human text (optionally -progress=json,500ms for a custom cadence);
// -progress=false disables. The zero value means "not requested".
type ProgressFlag struct {
	Interval time.Duration
	// JSON selects the machine-readable delta-per-line mode (Progress.SetJSON).
	JSON bool
}

// String implements flag.Value.
func (f *ProgressFlag) String() string {
	if f == nil || f.Interval <= 0 {
		return ""
	}
	if f.JSON {
		return "json," + f.Interval.String()
	}
	return f.Interval.String()
}

// Set implements flag.Value.
func (f *ProgressFlag) Set(s string) error {
	switch s {
	case "", "true":
		f.Interval = DefaultProgressInterval
		return nil
	case "false":
		f.Interval = 0
		f.JSON = false
		return nil
	case "json":
		f.Interval = DefaultProgressInterval
		f.JSON = true
		return nil
	}
	if rest, ok := strings.CutPrefix(s, "json,"); ok {
		d, err := time.ParseDuration(rest)
		if err != nil {
			return fmt.Errorf("-progress=json,INTERVAL wants a duration (e.g. json,500ms): %w", err)
		}
		if d <= 0 {
			return fmt.Errorf("-progress interval must be positive")
		}
		f.Interval = d
		f.JSON = true
		return nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("-progress wants a duration (e.g. 5s) or json[,INTERVAL]: %w", err)
	}
	if d <= 0 {
		return fmt.Errorf("-progress interval must be positive")
	}
	f.Interval = d
	return nil
}

// IsBoolFlag marks the flag as usable without a value (flag package
// contract for -progress with no argument).
func (f *ProgressFlag) IsBoolFlag() bool { return true }
