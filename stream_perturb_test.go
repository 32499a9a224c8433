package dynunlock

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"dynunlock/internal/flight"
	"dynunlock/internal/stream"
	"dynunlock/internal/trace"
)

// TestStreamDoesNotPerturbAttack pins the bus's zero-cost guarantee:
// attaching an event bus with no subscribers must leave the attack
// bit-identical — the same trial records, solver counters and candidate
// sets included — and must never assign a sequence number (events nobody
// listened for are never numbered).
func TestStreamDoesNotPerturbAttack(t *testing.T) {
	run := func(bus *stream.Bus) []flight.TrialRecord {
		t.Helper()
		var log strings.Builder
		cfg := ExperimentConfig{
			Benchmark: "s5378",
			KeyBits:   8,
			Policy:    PerCycle,
			Scale:     16,
			Trials:    3,
			SeedBase:  11,
			Log:       &log,
			Stream:    bus,
		}
		res, err := RunExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Trials
	}

	baseline := run(nil)
	bus := stream.NewBus()
	streamed := run(bus)

	// Drop wall-clock fields; everything else must match exactly.
	scrub := func(ts []flight.TrialRecord) []flight.TrialRecord {
		out := make([]flight.TrialRecord, len(ts))
		copy(out, ts)
		for i := range out {
			out[i].Seconds = 0
		}
		return out
	}
	if !reflect.DeepEqual(scrub(baseline), scrub(streamed)) {
		t.Errorf("idle bus perturbed the attack:\nbaseline: %+v\nstreamed: %+v",
			scrub(baseline), scrub(streamed))
	}
	if bus.LastSeq() != 0 {
		t.Errorf("bus assigned %d sequence numbers with no subscriber attached", bus.LastSeq())
	}
}

// TestStreamPublishesDIPEvents covers the live side of the same hook: with
// a subscriber attached, each DIP iteration publishes exactly one bus
// event, a "dip" event whose iteration numbers count up per trial and
// which carries the search anatomy and the seed-space state of that
// boundary. The only other events are the run's spans, results and
// metrics samples ("delta": a bus-only run samples a private registry),
// bridged from its trace.
func TestStreamPublishesDIPEvents(t *testing.T) {
	bus := stream.NewBusSized(4096, 4096)
	sub := bus.Subscribe(0)
	defer sub.Close()

	cfg := ExperimentConfig{
		Benchmark: "s5378",
		KeyBits:   8,
		Policy:    PerCycle,
		Scale:     16,
		Trials:    2,
		SeedBase:  11,
		Stream:    bus,
	}
	res, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Close drains the subscriber: buffered events still pop, then Next
	// reports ok=false instead of blocking on an idle bus.
	bus.Close()
	wantIters := 0
	for _, tr := range res.Trials {
		wantIters += tr.Iterations
	}

	byType := map[string]int{}
	perTrial := map[int]int{}
	for {
		ev, ok, _ := sub.Next(nil, 0)
		if !ok {
			break
		}
		byType[ev.Type]++
		switch ev.Type {
		case stream.TypeDIP:
			trial := ev.Data["trial"].(int)
			iter := ev.Data["iteration"].(int)
			perTrial[trial]++
			if iter != perTrial[trial] {
				t.Fatalf("trial %d: dip iteration %d arrived out of order (want %d)",
					trial, iter, perTrial[trial])
			}
			for _, key := range []string{"dip", "response"} {
				if s, ok := ev.Data[key].(string); !ok || s == "" {
					t.Fatalf("dip event missing %s bits: %+v", key, ev.Data)
				}
			}
			for _, key := range []string{"solve_ms", "difficulty", "lbd_mean", "xor_share"} {
				if _, ok := ev.Data[key].(float64); !ok {
					t.Fatalf("dip event missing %s: %+v", key, ev.Data)
				}
			}
			for _, key := range []string{"conflicts", "lbd_samples", "restarts"} {
				if _, ok := ev.Data[key].(uint64); !ok {
					t.Fatalf("dip event missing %s: %+v", key, ev.Data)
				}
			}
			for _, key := range []string{"rank", "rank_target", "seeds_log2"} {
				if _, ok := ev.Data[key].(int); !ok {
					t.Fatalf("dip event missing %s: %+v", key, ev.Data)
				}
			}
			if _, ok := ev.Data["eta_ms"].(int64); !ok {
				t.Fatalf("dip event missing eta_ms: %+v", ev.Data)
			}
			if inc, ok := ev.Data["inconsistent"].(bool); !ok || inc {
				t.Fatalf("dip event inconsistent flag = %v, want false", ev.Data["inconsistent"])
			}
		case stream.TypeSpan, stream.TypeResult, stream.TypeDelta:
		default:
			t.Fatalf("unexpected event type %q", ev.Type)
		}
	}
	if byType[stream.TypeDIP] != wantIters {
		t.Errorf("published %d dip events, trials report %d iterations", byType[stream.TypeDIP], wantIters)
	}
	// One result per trial plus the experiment's.
	if want := len(res.Trials) + 1; byType[stream.TypeResult] != want {
		t.Errorf("published %d result events, want %d", byType[stream.TypeResult], want)
	}
	if sub.Dropped() != 0 {
		t.Errorf("ring dropped %d events; size the test ring above the workload", sub.Dropped())
	}
}

func drain(t *testing.T, sub *stream.Subscriber, n int) []stream.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out := make([]stream.Event, 0, n)
	for len(out) < n {
		ev, ok, timedOut := sub.Next(ctx, 0)
		if !ok || timedOut {
			t.Fatalf("stream ended after %d of %d events", len(out), n)
		}
		out = append(out, ev)
	}
	return out
}

func TestStreamSinkMapsEventTypes(t *testing.T) {
	bus := stream.NewBus()
	sub := bus.Subscribe(0)
	defer sub.Close()
	sink := streamSink{bus}

	sink.Emit(trace.Event{Type: "span_start", Span: "encode", Time: time.Now()})
	sink.Emit(trace.Event{Type: "progress", Msg: "hi", Time: time.Now()})
	sink.Emit(trace.Event{Type: "snapshot", Fields: map[string]any{"iterations": 1.0}, Time: time.Now()})
	sink.Emit(trace.Event{
		Type: "span_end", Span: "encode", Time: time.Now(),
		Duration: 1500 * time.Microsecond,
		Counters: map[string]uint64{"encode_vars": 42},
	})
	trialFields := map[string]any{"iterations": 7}
	sink.Emit(trace.Event{Type: "result", Fields: trialFields, Time: time.Now()})
	sink.Emit(trace.Event{Type: "experiment", Fields: map[string]any{"succeeded": true}, Time: time.Now()})

	evs := drain(t, sub, 4)
	if evs[0].Type != stream.TypeDelta || evs[0].Data["iterations"] != 1.0 {
		t.Fatalf("event 0 = %+v, want the snapshot as a delta (span_start/progress dropped)", evs[0])
	}
	if evs[1].Type != stream.TypeSpan {
		t.Fatalf("event 1 = %q, want span", evs[1].Type)
	}
	if evs[1].Data["span"] != "encode" || evs[1].Data["dur_ms"] != 1.5 {
		t.Fatalf("span data = %v", evs[1].Data)
	}
	counters, ok := evs[1].Data["counters"].(map[string]any)
	if !ok || counters["encode_vars"] != uint64(42) {
		t.Fatalf("span counters = %v", evs[1].Data["counters"])
	}
	if evs[2].Type != stream.TypeResult || evs[2].Data["scope"] != "trial" {
		t.Fatalf("event 2 = %+v, want trial-scoped result", evs[2])
	}
	if evs[3].Type != stream.TypeResult || evs[3].Data["scope"] != "experiment" {
		t.Fatalf("event 3 = %+v, want experiment-scoped result", evs[3])
	}
	// The shared fields map must not have been mutated by scope injection.
	if _, leaked := trialFields["scope"]; leaked {
		t.Fatal("withScope mutated the source fields map")
	}
}

func TestStreamSinkNilBusAndNoSubscribers(t *testing.T) {
	streamSink{}.Emit(trace.Event{Type: "experiment", Fields: map[string]any{"x": 1}})
	bus := stream.NewBus()
	streamSink{bus}.Emit(trace.Event{Type: "experiment", Fields: map[string]any{"x": 1}})
	if bus.LastSeq() != 0 {
		t.Fatal("sink published with no subscribers attached")
	}
}
