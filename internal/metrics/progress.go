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

// ProgressInterval is the cadence of a run's periodic metrics sample.
const ProgressInterval = 2 * time.Second

// StartSampling starts a run's periodic metrics sample. Every
// ProgressInterval it reads r, the run's own registry, and emits the
// result to tr as one "snapshot" trace event whose fields also carry run
// (the fields naming the run). The returned stop emits one closing sample
// and returns once the sampler has exited; later calls do nothing.
// Without a registry or an enabled tracer nothing starts and stop does
// nothing.
func StartSampling(r *Registry, tr *trace.Tracer, run map[string]any) (stop func()) {
	return startSampling(r, tr, run, ProgressInterval)
}

// startSampling is StartSampling at a given cadence.
func startSampling(r *Registry, tr *trace.Tracer, run map[string]any, every time.Duration) (stop func()) {
	if r == nil || !tr.Enabled() {
		return func() {}
	}
	s := &sampler{r: r, run: run, lastT: time.Now()}
	quit, done := make(chan struct{}), make(chan struct{})
	emit := func(now time.Time) {
		tr.Emit(trace.Event{Type: "snapshot", Time: now, Fields: s.sample(now)})
	}
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				emit(now)
			case <-quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-done
			emit(time.Now())
		})
	}
}

// sampler is one run's sample state: its registry, the fields naming it,
// and the previous totals the rate fields difference against.
type sampler struct {
	r        *Registry
	run      map[string]any
	lastT    time.Time
	lastConf float64
	lastProp float64
}

// sample reads the registry once and returns the fields of one "snapshot"
// event: DIPs, conflict and propagation totals with their rates since the
// previous sample, learnt-clause DB size, oracle scan cycles, RSS, and —
// once their series exist — encode growth, the DIP solve-latency
// percentiles and the sampled learnt-clause LBD distribution
// (lbd_samples, lbd_mean, and lbd_counts per LBDBuckets bucket). A run's
// closing sample is the one copy of its metrics in a recorded bundle.
func (s *sampler) sample(now time.Time) map[string]any {
	sum := s.r.Sum
	total := func(name string) float64 { v, _ := sum(name); return v }
	fields := make(map[string]any, len(s.run)+20)
	for k, v := range s.run {
		fields[k] = v
	}
	conflicts, props := total(MetricSatConflicts), total(MetricSatPropagations)
	var confRate, propRate float64
	if dt := now.Sub(s.lastT).Seconds(); dt > 0 {
		confRate = (conflicts - s.lastConf) / dt
		propRate = (props - s.lastProp) / dt
	}
	s.lastT, s.lastConf, s.lastProp = now, conflicts, props
	fields["iterations"] = total(MetricAttackDIPs)
	fields["conflicts"] = conflicts
	fields["conflicts_per_s"] = confRate
	fields["propagations"] = props
	fields["props_per_s"] = propRate
	fields["learnt_db"] = total(MetricSatLearntDB)
	fields["oracle_cycles"] = total(MetricOracleCycles)
	if rss, ok := ReadRSS(); ok {
		fields["rss_bytes"] = rss
	}
	if v, ok := sum(MetricEncodeVars); ok {
		fields["encode_vars"] = v
	}
	if v, ok := sum(MetricEncodeClauses); ok {
		fields["encode_clauses"] = v
	}
	if n, ok := sum(MetricAttackDIPSolveSec); ok && n > 0 {
		for key, q := range map[string]float64{"solve_p50_s": 0.50, "solve_p95_s": 0.95, "solve_p99_s": 0.99} {
			fields[key] = s.r.quantile(MetricAttackDIPSolveSec, q)
		}
	}
	if _, counts, lbdSum, ok := s.r.buckets(MetricSatLearntLBD); ok {
		var n uint64
		for _, c := range counts {
			n += c
		}
		mean := 0.0
		if n > 0 {
			mean = lbdSum / float64(n)
		}
		fields["lbd_samples"] = n
		fields["lbd_mean"] = mean
		fields["lbd_counts"] = counts
	}
	return fields
}

// ProgressLine renders one sample as a line: the fields of a "snapshot"
// trace event, or the data of the "delta" stream event the run's bus
// bridge makes of it (numbers decoded from JSON render the same). The
// -progress sink and `runs watch` both print it. Absent fields are
// skipped, so the line names the run, then its solver and oracle work,
// encode growth, RSS and DIP solve percentiles as far as the sample
// carries them.
func ProgressLine(d map[string]any) string {
	var b strings.Builder
	b.WriteString("progress:")
	if name, ok := d["benchmark"].(string); ok {
		b.WriteString(" " + name)
	}
	if k, ok := number(d["key_bits"]); ok {
		fmt.Fprintf(&b, " k=%.0f", k)
	}
	count := func(label, key string) {
		if v, ok := number(d[key]); ok {
			fmt.Fprintf(&b, " %s=%s", label, humanCount(v))
		}
	}
	rate := func(key string) {
		if v, ok := number(d[key]); ok {
			fmt.Fprintf(&b, " (%s/s)", humanCount(v))
		}
	}
	count("iters", "iterations")
	count("conflicts", "conflicts")
	rate("conflicts_per_s")
	count("props", "propagations")
	rate("props_per_s")
	count("learnt", "learnt_db")
	count("cycles", "oracle_cycles")
	count("vars", "encode_vars")
	count("clauses", "encode_clauses")
	if rss, ok := number(d["rss_bytes"]); ok {
		b.WriteString(" rss=" + humanBytes(uint64(rss)))
	}
	if p50, ok := number(d["solve_p50_s"]); ok {
		p95, _ := number(d["solve_p95_s"])
		p99, _ := number(d["solve_p99_s"])
		fmt.Fprintf(&b, " solve_p50=%s p95=%s p99=%s", seconds(p50), seconds(p95), seconds(p99))
	}
	return b.String()
}

// number reads a sample field as a float64: the sampler's own values
// (float64, uint64, int) or a JSON-decoded number.
func number(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case uint64:
		return float64(x), true
	case int:
		return float64(x), true
	}
	return 0, false
}

// seconds renders a duration given in seconds, rounded to the microsecond.
func seconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// ProgressSink is the -progress trace sink. It prints every "snapshot"
// event — a run's periodic sample — to W as one ProgressLine or, with
// JSON, as one stream-schema "delta" envelope per line, which
// stream.ParseEvent reads back. Other events are ignored. It is safe for
// concurrent use: the conditions of a sweep sample concurrently.
type ProgressSink struct {
	W    io.Writer
	JSON bool
	mu   sync.Mutex
}

// Emit implements trace.Sink.
func (s *ProgressSink) Emit(ev trace.Event) {
	if ev.Type != "snapshot" {
		return
	}
	line := []byte(ProgressLine(ev.Fields))
	if s.JSON {
		var err error
		if line, err = json.Marshal(stream.Event{Type: stream.TypeDelta, Time: ev.Time, Data: ev.Fields}); err != nil {
			return
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.W.Write(append(line, '\n'))
}

// ProgressFlag is the -progress[=json] flag. A bare -progress prints each
// of the run's samples to a writer as a ProgressLine; -progress=json
// prints it as a stream-schema "delta" envelope instead; -progress=false
// turns it off. The run samples at its own cadence (ProgressInterval),
// which the flag does not set.
type ProgressFlag struct {
	On   bool
	JSON bool
}

// String implements flag.Value.
func (f *ProgressFlag) String() string {
	switch {
	case f == nil || !f.On:
		return ""
	case f.JSON:
		return "json"
	}
	return "true"
}

// Set implements flag.Value.
func (f *ProgressFlag) Set(s string) error {
	switch s {
	case "", "true":
		*f = ProgressFlag{On: true}
	case "json":
		*f = ProgressFlag{On: true, JSON: true}
	case "false":
		*f = ProgressFlag{}
	default:
		return fmt.Errorf("-progress takes no value or json, not %q", s)
	}
	return nil
}

// IsBoolFlag marks the flag as usable without a value (flag package
// contract for -progress with no argument).
func (f *ProgressFlag) IsBoolFlag() bool { return true }

// Sink returns the trace sink the flag asks for: a ProgressSink writing
// to w, or nil (no sink) when the flag is off.
func (f *ProgressFlag) Sink(w io.Writer) trace.Sink {
	if !f.On {
		return nil
	}
	return &ProgressSink{W: w, JSON: f.JSON}
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
