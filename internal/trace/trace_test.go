package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNopTracerIsSafe(t *testing.T) {
	tr := From(context.Background())
	if tr.Enabled() {
		t.Fatal("background context must carry no sink")
	}
	sp := tr.Start("dip_loop")
	sp.Add("dips", 3)
	sp.End()
	sp.End() // idempotent
	tr.Progressf("iter %d", 1)
	tr.Emit(Event{Type: "result"})
	if From(nil).Enabled() {
		t.Fatal("nil context must yield the nop tracer")
	}
}

func TestWithFromRoundTrip(t *testing.T) {
	c := NewCollector()
	ctx := With(context.Background(), c)
	tr := From(ctx)
	if !tr.Enabled() {
		t.Fatal("sink not carried")
	}
	sp := tr.Start("encode")
	sp.Add("clauses", 10)
	sp.Add("clauses", 5)
	sp.End()
	tr.Progressf("hello %s", "world")
	tr.Emit(Event{Type: "result", Fields: map[string]any{"stopped": false}})

	spans := c.Spans()
	if len(spans) != 1 || spans[0].Name != "encode" || spans[0].Counters["clauses"] != 15 {
		t.Fatalf("spans = %+v", spans)
	}
	evs := c.Events()
	if len(evs) != 4 { // span_start, span_end, progress, result
		t.Fatalf("got %d events", len(evs))
	}
	if evs[2].Msg != "hello world" {
		t.Fatalf("progress msg = %q", evs[2].Msg)
	}
	if evs[3].Time.IsZero() {
		t.Fatal("Emit must stamp zero times")
	}
}

// With layers a second sink under the one already on the context: both
// see every event emitted below, and the outer context keeps only its own.
func TestWithLayersOverInheritedSink(t *testing.T) {
	outer, inner := NewCollector(), NewCollector()
	octx := With(context.Background(), outer)
	ictx := With(octx, inner)
	From(ictx).Progressf("below")
	From(octx).Progressf("above")
	if got := len(outer.Events()); got != 2 {
		t.Fatalf("outer sink saw %d events, want 2", got)
	}
	if evs := inner.Events(); len(evs) != 1 || evs[0].Msg != "below" {
		t.Fatalf("inner sink saw %+v, want only the event emitted below it", evs)
	}
}

func TestWithNilSinkReturnsSameContext(t *testing.T) {
	ctx := context.Background()
	if With(ctx, nil) != ctx {
		t.Fatal("nil sink must not wrap the context")
	}
}

func TestJSONLSinkSchema(t *testing.T) {
	var buf bytes.Buffer
	tr := From(With(context.Background(), NewJSONLSink(&buf)))
	sp := tr.Start("dip_loop")
	sp.Add("dips", 7)
	sp.End()
	tr.Progressf("iter 1")
	tr.Emit(Event{Type: "result", Fields: map[string]any{"stopped": true, "reason": "deadline"}})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	var evs []map[string]any
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d not JSON: %v (%q)", i, err, ln)
		}
		if m["ev"] == "" || m["t"] == "" {
			t.Fatalf("line %d missing ev/t: %v", i, m)
		}
		evs = append(evs, m)
	}
	if evs[0]["ev"] != "span_start" || evs[0]["span"] != "dip_loop" {
		t.Fatalf("first event = %v", evs[0])
	}
	end := evs[1]
	if end["ev"] != "span_end" {
		t.Fatalf("second event = %v", end)
	}
	if _, ok := end["dur_ms"].(float64); !ok {
		t.Fatalf("span_end missing dur_ms: %v", end)
	}
	counters, ok := end["counters"].(map[string]any)
	if !ok || counters["dips"] != float64(7) {
		t.Fatalf("span_end counters = %v", end["counters"])
	}
	fields, ok := evs[3]["fields"].(map[string]any)
	if !ok || fields["stopped"] != true || fields["reason"] != "deadline" {
		t.Fatalf("result fields = %v", evs[3]["fields"])
	}
}

func TestMultiSink(t *testing.T) {
	if Multi(nil, nil) != nil {
		t.Fatal("all-nil Multi must be nil")
	}
	a, b := NewCollector(), NewCollector()
	if Multi(a) != Sink(a) {
		t.Fatal("single sink must pass through")
	}
	tr := From(With(context.Background(), Multi(a, nil, b)))
	tr.Progressf("x")
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatal("event not fanned out")
	}
}

// Sinks and spans must be race-clean: concurrent sweep workers emit into
// one sink.
func TestConcurrentEmit(t *testing.T) {
	c := NewCollector()
	var jbuf bytes.Buffer
	tr := From(With(context.Background(), Multi(c, NewJSONLSink(&jbuf))))
	sp := tr.Start("dip_loop")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp.Add("conflicts", 1)
				tr.Progressf("g")
			}
		}()
	}
	wg.Wait()
	sp.End()
	spans := c.Spans()
	if len(spans) != 1 || spans[0].Counters["conflicts"] != 800 {
		t.Fatalf("spans = %+v", spans)
	}
}

// TestConcurrentSpanEmissionJSONL is the regression test for the JSONL
// sink under sweep-style concurrency: many goroutines each opening,
// annotating, and closing their own spans against one shared sink. Run
// under -race (CI does) it catches any lost synchronization; the JSON
// decode below catches interleaved partial lines.
func TestConcurrentSpanEmissionJSONL(t *testing.T) {
	var buf bytes.Buffer
	col := NewCollector()
	tr := From(With(context.Background(), Multi(NewJSONLSink(&buf), col)))
	const goroutines, spansPer = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < spansPer; i++ {
				sp := tr.Start("dip_loop")
				sp.Add("conflicts", uint64(g))
				tr.Progressf("worker %d iter %d", g, i)
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	if got := len(col.Spans()); got != goroutines*spansPer {
		t.Fatalf("collector saw %d spans, want %d", got, goroutines*spansPer)
	}
	// Every line must be a complete, standalone JSON object: torn writes
	// from unsynchronized goroutines would corrupt the stream.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	wantLines := goroutines * spansPer * 3 // span_start + progress + span_end
	if len(lines) != wantLines {
		t.Fatalf("got %d JSONL lines, want %d", len(lines), wantLines)
	}
	counts := map[string]int{}
	for i, line := range lines {
		var ev struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON (%v): %q", i, err, line)
		}
		counts[ev.Ev]++
	}
	for _, typ := range []string{"span_start", "span_end", "progress"} {
		if counts[typ] != goroutines*spansPer {
			t.Fatalf("event counts %v, want %d of each", counts, goroutines*spansPer)
		}
	}
}
