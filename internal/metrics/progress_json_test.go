package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dynunlock/internal/stream"
	"dynunlock/internal/trace"
)

// TestProgressJSONModeEmitsStreamDeltas pins -progress=json: each output
// line is the JSON envelope of a stream "delta" event carrying the
// sample, so headless logs and the SSE feed share one parser.
func TestProgressJSONModeEmitsStreamDeltas(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricAttackDIPs, "engine", "sequential").Add(12)
	r.Counter(MetricSatConflicts, "engine", "sequential").Add(345)
	r.Counter(MetricEncodeVars, "engine", "sequential").Add(1000)
	r.Counter(MetricEncodeClauses, "engine", "sequential").Add(4000)

	var buf bytes.Buffer
	f := ProgressFlag{On: true, JSON: true}
	f.Sink(&buf).Emit(trace.Event{Type: "snapshot", Time: time.Now(), Fields: sampleOnce(r, nil)})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want exactly one JSON line, got %d:\n%s", len(lines), buf.String())
	}
	ev, err := stream.ParseEvent([]byte(lines[0]))
	if err != nil {
		t.Fatalf("line does not parse as a stream event: %v\n%s", err, lines[0])
	}
	if ev.Type != stream.TypeDelta {
		t.Fatalf("line type = %q, want %q", ev.Type, stream.TypeDelta)
	}
	if ev.Seq != 0 {
		t.Errorf("stderr delta carries seq %d; only bus events are numbered", ev.Seq)
	}
	for field, want := range map[string]float64{
		"iterations":     12,
		"conflicts":      345,
		"encode_vars":    1000,
		"encode_clauses": 4000,
	} {
		if v, ok := ev.Data[field].(float64); !ok || v != want {
			t.Errorf("delta %s = %v, want %v", field, ev.Data[field], want)
		}
	}
	if strings.Contains(lines[0], "progress:") {
		t.Error("JSON mode still emits the human line")
	}
	// The decoded delta renders as the same line the text mode prints.
	if got, want := ProgressLine(ev.Data), "vars=1.0k clauses=4.0k"; !strings.Contains(got, want) {
		t.Errorf("decoded delta renders %q, want it to contain %q", got, want)
	}
}

func TestProgressFlagJSONModes(t *testing.T) {
	var f ProgressFlag
	if err := f.Set("json"); err != nil {
		t.Fatal(err)
	}
	if !f.On || !f.JSON {
		t.Errorf("Set(json) = %+v", f)
	}
	if got := f.String(); got != "json" {
		t.Errorf("String() = %q", got)
	}

	// The interval forms are gone: the run samples at its own cadence.
	for _, bad := range []string{"json,250ms", "json,", "json,nope", "json,-1s", "jsonx"} {
		f = ProgressFlag{}
		if err := f.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}

	f = ProgressFlag{}
	if err := f.Set("json"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("false"); err != nil {
		t.Fatal(err)
	}
	if f.On || f.JSON {
		t.Errorf("Set(false) did not clear JSON mode: %+v", f)
	}
}
