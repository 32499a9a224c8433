// Package trace is the observability layer of the attack stack: named
// spans with wall-clock durations, monotonic counters (DIPs, oracle
// queries/cycles, SAT conflicts/decisions/propagations, learnt-clause
// stats), and free-form progress events, delivered to a pluggable Sink.
//
// The tracer rides on context.Context (With / From), so no public attack
// API grows a logger parameter: a layer that wants telemetry calls
// trace.From(ctx) and gets either the sink installed upstream or a no-op.
// The no-op path is allocation-free nil-receiver dispatch — a background
// context reproduces the untraced code paths bit for bit, which the
// determinism tests in internal/core enforce.
//
// Span names follow the paper's Fig. 3 stage structure: "unroll" (LFSR
// unroll + mask matrices + model netlist), "encode" (CNF encoding),
// "dip_loop", "extract", "enumerate", "refine" (seed-coset expansion),
// and "verify" (probe verification). Sinks are in sink.go; the JSONL
// schema is documented on JSONLSink and in DESIGN.md §3d.
package trace

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Event is one telemetry record. Type is one of:
//
//	"span_start"  a stage began (Span set)
//	"span_end"    a stage finished (Span, Duration, Counters set)
//	"progress"    a free-form progress line (Msg set)
//	"snapshot"    a periodic live-metrics sample (Fields set; see
//	              internal/metrics.Progress)
//	"result"      a terminal attack summary (Fields set)
//	"experiment"  a terminal multi-trial summary (Fields set)
type Event struct {
	Type     string
	Span     string
	Time     time.Time
	Duration time.Duration
	Counters map[string]uint64
	Msg      string
	Fields   map[string]any
}

// Sink receives telemetry events. Implementations must be safe for
// concurrent use: condition sweeps and daemon workers emit from several
// goroutines.
type Sink interface {
	Emit(ev Event)
}

type ctxKey struct{}

// With returns a context carrying the sink. A sink already on ctx keeps
// receiving every event: the two are layered with Multi, so a run can add
// its own sinks below a CLI's without losing the CLI's. Attack layers below
// retrieve the result with From; a nil sink returns ctx unchanged.
func With(ctx context.Context, s Sink) context.Context {
	if s == nil {
		return ctx
	}
	if parent := From(ctx); parent != nil {
		s = Multi(parent.sink, s)
	}
	return context.WithValue(ctx, ctxKey{}, &Tracer{sink: s})
}

// From returns the tracer carried by ctx, or a no-op tracer (nil) when
// none is installed. All Tracer and Span methods are nil-safe, so callers
// never branch on the result.
func From(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	if t, ok := ctx.Value(ctxKey{}).(*Tracer); ok {
		return t
	}
	return nil
}

// Tracer emits events to its sink. The nil tracer is the no-op
// implementation used when a context carries no sink.
type Tracer struct {
	sink Sink
}

// New returns a tracer emitting to s (nil s gives the no-op tracer).
// Most callers use With/From instead; New exists for tests and CLIs that
// hold a tracer directly.
func New(s Sink) *Tracer {
	if s == nil {
		return nil
	}
	return &Tracer{sink: s}
}

// Enabled reports whether events reach a real sink.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// Start begins a span. End must be called to emit the closing event;
// counters added in between travel on the span_end event.
func (t *Tracer) Start(name string) *Span {
	if !t.Enabled() {
		return nil
	}
	now := time.Now()
	t.sink.Emit(Event{Type: "span_start", Span: name, Time: now})
	return &Span{tr: t, name: name, start: now}
}

// Progressf emits a formatted progress event.
func (t *Tracer) Progressf(format string, args ...any) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{Type: "progress", Time: time.Now(), Msg: fmt.Sprintf(format, args...)})
}

// Emit sends a fully formed event (used for "result"/"experiment"
// summaries). A zero Time is stamped with the current time.
func (t *Tracer) Emit(ev Event) {
	if !t.Enabled() {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	t.sink.Emit(ev)
}

// Span is an in-flight stage. The nil span (from a no-op tracer) accepts
// all method calls and does nothing.
type Span struct {
	tr    *Tracer
	name  string
	start time.Time

	mu       sync.Mutex
	counters map[string]uint64
	ended    bool
}

// Add increments a monotonic counter attached to the span.
func (sp *Span) Add(name string, delta uint64) {
	if sp == nil || delta == 0 {
		return
	}
	sp.mu.Lock()
	if sp.counters == nil {
		sp.counters = make(map[string]uint64)
	}
	sp.counters[name] += delta
	sp.mu.Unlock()
}

// End emits the span_end event with the span's duration and counters.
// End is idempotent; only the first call emits.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return
	}
	sp.ended = true
	counters := sp.counters
	sp.counters = nil
	sp.mu.Unlock()
	now := time.Now()
	sp.tr.sink.Emit(Event{
		Type:     "span_end",
		Span:     sp.name,
		Time:     now,
		Duration: now.Sub(sp.start),
		Counters: counters,
	})
}
