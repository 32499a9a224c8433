package trace

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// JSONLSink writes one JSON object per event to w (JSON Lines). The
// schema, stable for downstream tooling:
//
//	{
//	  "ev":       "span_start" | "span_end" | "progress" | "snapshot" | "result" | "experiment",
//	  "t":        RFC3339Nano wall-clock timestamp,
//	  "span":     stage name (span events only),
//	  "dur_ms":   span duration in milliseconds (span_end only),
//	  "counters": {name: uint64, ...} (span_end only, omitted when empty),
//	  "msg":      progress text (progress only),
//	  "fields":   {name: value, ...} (snapshot/result/experiment only)
//	}
//
// Safe for concurrent use; every event is written as one atomic line.
type JSONLSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewJSONLSink returns a JSONL sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

type jsonEvent struct {
	Ev       string            `json:"ev"`
	T        string            `json:"t"`
	Span     string            `json:"span,omitempty"`
	DurMS    float64           `json:"dur_ms,omitempty"`
	Counters map[string]uint64 `json:"counters,omitempty"`
	Msg      string            `json:"msg,omitempty"`
	Fields   map[string]any    `json:"fields,omitempty"`
}

// Emit implements Sink.
func (s *JSONLSink) Emit(ev Event) {
	je := jsonEvent{
		Ev:       ev.Type,
		T:        ev.Time.Format(time.RFC3339Nano),
		Span:     ev.Span,
		Counters: ev.Counters,
		Msg:      ev.Msg,
		Fields:   ev.Fields,
	}
	if ev.Type == "span_end" {
		je.DurMS = float64(ev.Duration) / float64(time.Millisecond)
	}
	b, err := json.Marshal(je)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.mu.Lock()
	s.w.Write(b)
	s.mu.Unlock()
}

// SpanRecord is one completed span as retained by a Collector.
type SpanRecord struct {
	Name     string
	Duration time.Duration
	Counters map[string]uint64
}

// Collector retains completed spans and terminal events in memory, in
// emission order. CLIs use it to render per-stage timing tables after a
// run; tests use it to assert on the span stream.
type Collector struct {
	mu     sync.Mutex
	spans  []SpanRecord
	events []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit implements Sink.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev)
	if ev.Type == "span_end" {
		c.spans = append(c.spans, SpanRecord{Name: ev.Span, Duration: ev.Duration, Counters: ev.Counters})
	}
}

// Spans returns the completed spans in emission order.
func (c *Collector) Spans() []SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanRecord(nil), c.spans...)
}

// Events returns every event received, in emission order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// MultiSink fans every event out to several sinks.
type MultiSink []Sink

// Multi combines sinks, dropping nils; it returns nil when none remain.
func Multi(sinks ...Sink) Sink {
	var ms MultiSink
	for _, s := range sinks {
		if s != nil {
			ms = append(ms, s)
		}
	}
	switch len(ms) {
	case 0:
		return nil
	case 1:
		return ms[0]
	}
	return ms
}

// Emit implements Sink.
func (ms MultiSink) Emit(ev Event) {
	for _, s := range ms {
		s.Emit(ev)
	}
}
