package stream

import (
	"bufio"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestWriteEventFraming(t *testing.T) {
	var b strings.Builder
	ev := Event{Seq: 7, Type: TypeDIP, Time: time.Unix(0, 0).UTC(), Data: map[string]any{"iteration": 3}}
	if err := WriteEvent(&b, ev); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	lines := strings.Split(got, "\n")
	if lines[0] != "id: 7" {
		t.Fatalf("id line = %q", lines[0])
	}
	if lines[1] != "event: dip" {
		t.Fatalf("event line = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "data: {") {
		t.Fatalf("data line = %q", lines[2])
	}
	if !strings.HasSuffix(got, "\n\n") {
		t.Fatalf("frame not terminated by a blank line: %q", got)
	}
}

func TestWriteEventOmitsIDForSynthesizedEvents(t *testing.T) {
	var b strings.Builder
	if err := WriteEvent(&b, Event{Type: TypeHello, Time: time.Unix(0, 0).UTC()}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "id:") {
		t.Fatalf("hello frame carries an id line: %q", b.String())
	}
}

func TestRoundTrip(t *testing.T) {
	var b strings.Builder
	events := []Event{
		{Type: TypeHello, Time: time.Now().UTC(), Data: map[string]any{"proto": float64(Proto)}},
		{Seq: 1, Type: TypeSnapshot, Time: time.Now().UTC(), Data: map[string]any{"dynunlock_sat_conflicts_total": 12.0}},
		{Seq: 2, Type: TypeDelta, Time: time.Now().UTC(), Data: map[string]any{"iterations": 3.0}},
		{Seq: 3, Type: TypeResult, Time: time.Now().UTC(), Data: map[string]any{"scope": "experiment"}},
	}
	for i, ev := range events {
		if err := WriteEvent(&b, ev); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i == 1 {
			if err := WriteComment(&b, "keep-alive"); err != nil {
				t.Fatal(err)
			}
		}
	}
	d := NewDecoder(strings.NewReader(b.String()))
	for i, want := range events {
		got, err := d.Next()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.Type != want.Type {
			t.Fatalf("decode %d: got seq=%d type=%q, want seq=%d type=%q", i, got.Seq, got.Type, want.Seq, want.Type)
		}
		for k, v := range want.Data {
			if got.Data[k] != v {
				t.Fatalf("decode %d: data[%q] = %v, want %v", i, k, got.Data[k], v)
			}
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("trailing Next err = %v, want io.EOF", err)
	}
}

func TestDecoderToleratesCommentsAndRetry(t *testing.T) {
	in := ": welcome\n\nretry: 1000\nevent: delta\ndata: {\"seq\":1,\"type\":\"delta\",\"t\":\"2026-01-01T00:00:00Z\"}\nid: 1\n\n"
	d := NewDecoder(strings.NewReader(in))
	ev, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != TypeDelta || ev.Seq != 1 {
		t.Fatalf("got %+v", ev)
	}
}

func TestDecoderJoinsMultilineData(t *testing.T) {
	in := "event: dip\ndata: {\"seq\":2,\"type\":\"dip\",\ndata: \"t\":\"2026-01-01T00:00:00Z\"}\n\n"
	d := NewDecoder(strings.NewReader(in))
	ev, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != TypeDIP || ev.Seq != 2 {
		t.Fatalf("got %+v", ev)
	}
}

// corruptFrames are streams the decoder must reject with ErrCorrupt; they
// also seed FuzzDecoder.
var corruptFrames = map[string]string{
	"id mismatch":     "id: 9\nevent: delta\ndata: {\"seq\":1,\"type\":\"delta\",\"t\":\"2026-01-01T00:00:00Z\"}\n\n",
	"type mismatch":   "event: dip\ndata: {\"seq\":1,\"type\":\"delta\",\"t\":\"2026-01-01T00:00:00Z\"}\n\n",
	"unknown type":    "event: bogus\ndata: {\"seq\":1,\"type\":\"bogus\",\"t\":\"2026-01-01T00:00:00Z\"}\n\n",
	"missing type":    "data: {\"seq\":1,\"t\":\"2026-01-01T00:00:00Z\"}\n\n",
	"bad json":        "event: delta\ndata: {nope\n\n",
	"no separator":    "garbage line\n\n",
	"unknown field":   "bogusfield: x\ndata: {\"type\":\"delta\",\"t\":\"2026-01-01T00:00:00Z\"}\n\n",
	"truncated frame": "event: delta\ndata: {\"seq\":1,\"type\":\"delta\",\"t\":\"2026-01-01T00:00:00Z\"}",
	"non-numeric id":  "id: xyz\nevent: delta\ndata: {\"seq\":1,\"type\":\"delta\",\"t\":\"2026-01-01T00:00:00Z\"}\n\n",
}

func TestDecoderCorruptCases(t *testing.T) {
	for name, in := range corruptFrames {
		d := NewDecoder(strings.NewReader(in))
		if _, err := d.Next(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// A line longer than the scanner accepts is a corrupt stream, not a
// broken connection: retrying would read the same line again.
func TestDecoderOverlongLineIsCorrupt(t *testing.T) {
	in := "data: " + strings.Repeat("x", maxFrameBytes) + "\n\n"
	_, err := NewDecoder(strings.NewReader(in)).Next()
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want ErrCorrupt wrapping bufio.ErrTooLong", err)
	}
}

// Data lines that each fit the line limit must not add up to an unbounded
// frame: twelve 3 MiB lines stop at the 4 MiB frame cap.
func TestDecoderCapsFrameData(t *testing.T) {
	line := "data: " + strings.Repeat("x", 3<<20) + "\n"
	readers := make([]io.Reader, 12)
	for i := range readers {
		readers[i] = strings.NewReader(line)
	}
	_, err := NewDecoder(io.MultiReader(readers...)).Next()
	if !errors.Is(err, ErrCorrupt) || errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want ErrCorrupt for the frame cap", err)
	}
}

func TestDecoderSkipsDatalessFrames(t *testing.T) {
	in := "id: 5\nevent: delta\n\nevent: result\ndata: {\"seq\":6,\"type\":\"result\",\"t\":\"2026-01-01T00:00:00Z\"}\nid: 6\n\n"
	d := NewDecoder(strings.NewReader(in))
	ev, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != TypeResult {
		t.Fatalf("got %q, want the result frame (dataless frame dispatches nothing)", ev.Type)
	}
}

func TestParseEventRejectsEmptyAndUnknown(t *testing.T) {
	if _, err := ParseEvent([]byte(`{"type":"delta","t":"2026-01-01T00:00:00Z"}`)); err != nil {
		t.Fatalf("valid delta rejected: %v", err)
	}
	if _, err := ParseEvent([]byte(`{"t":"2026-01-01T00:00:00Z"}`)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing type: err = %v", err)
	}
	if _, err := ParseEvent([]byte(`{"type":"nope","t":"2026-01-01T00:00:00Z"}`)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown type: err = %v", err)
	}
	if _, err := ParseEvent([]byte("not json")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad json: err = %v", err)
	}
}

func TestJobTagSurvivesSSERoundTrip(t *testing.T) {
	var buf strings.Builder
	in := Event{Seq: 7, Type: TypeJob, Job: "job-3", Time: time.Unix(0, 0).UTC(),
		Data: map[string]any{"state": "running"}}
	if err := WriteEvent(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := NewDecoder(strings.NewReader(buf.String())).Next()
	if err != nil {
		t.Fatal(err)
	}
	if out.Job != "job-3" || out.Type != TypeJob || out.Seq != 7 {
		t.Fatalf("round trip lost fields: %+v", out)
	}
	// Untagged events must not grow a job field on the wire.
	buf.Reset()
	if err := WriteEvent(&buf, Event{Seq: 8, Type: TypeDelta, Time: time.Unix(0, 0).UTC()}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "job") {
		t.Fatalf("untagged event leaked a job field: %q", buf.String())
	}
}

// FuzzDecoder feeds arbitrary bytes to the SSE decoder. Whatever the
// input, the decoder returns events until io.EOF or an error wrapping
// ErrCorrupt (a bytes reader has no errors of its own), it never panics,
// and every event it returns survives WriteEvent and a second decode
// unchanged.
func FuzzDecoder(f *testing.F) {
	var valid strings.Builder
	for _, ev := range []Event{
		{Type: TypeHello, Time: time.Unix(0, 0).UTC(), Data: map[string]any{"proto": float64(Proto), "last_seq": 0.0}},
		{Seq: 1, Type: TypeSnapshot, Time: time.Unix(1, 0).UTC(), Data: map[string]any{`dynunlock_sat_conflicts_total{benchmark="s5378"}`: 12.0}},
		{Seq: 2, Type: TypeDelta, Time: time.Unix(2, 0).UTC(), Data: map[string]any{"iterations": 3.0}},
		{Seq: 3, Type: TypeDIP, Job: "job-0001", Time: time.Unix(3, 0).UTC(), Data: map[string]any{
			"trial": 0.0, "iteration": 1.0, "dip": "0110", "response": "10", "conflicts": 17.0,
			"solve_ms": 1.25, "difficulty": 17.5, "lbd_mean": 4.2, "lbd_samples": 9.0, "restarts": 1.0,
			"xor_share": 0.3,
		}},
		{Seq: 4, Type: TypeResult, Time: time.Unix(4, 0).UTC(), Data: map[string]any{"scope": "experiment"}},
	} {
		if err := WriteEvent(&valid, ev); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte(valid.String()))
	f.Add([]byte(": welcome\n\nretry: 1000\nevent: delta\ndata: {\"seq\":1,\"type\":\"delta\",\"t\":\"2026-01-01T00:00:00Z\"}\nid: 1\n\n"))
	f.Add([]byte("event: dip\ndata: {\"seq\":2,\"type\":\"dip\",\ndata: \"t\":\"2026-01-01T00:00:00Z\"}\n\n"))
	f.Add([]byte("id: 5\nevent: delta\n\nevent: result\ndata: {\"seq\":6,\"type\":\"result\",\"t\":\"2026-01-01T00:00:00Z\"}\nid: 6\n\n"))
	for _, in := range corruptFrames {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		d := NewDecoder(strings.NewReader(string(in)))
		for {
			ev, err := d.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error %v neither io.EOF nor ErrCorrupt", err)
				}
				return
			}
			var frame strings.Builder
			if err := WriteEvent(&frame, ev); err != nil {
				t.Fatalf("decoded event %+v does not re-encode: %v", ev, err)
			}
			if frame.Len() > maxFrameBytes {
				continue // JSON escaping grew it past the decoder's cap
			}
			back, err := NewDecoder(strings.NewReader(frame.String())).Next()
			if err != nil {
				t.Fatalf("re-encoded frame %q does not decode: %v", frame.String(), err)
			}
			if !sameEvent(ev, back) {
				t.Fatalf("round trip changed the event:\n got %+v\nwant %+v", back, ev)
			}
		}
	})
}

// sameEvent compares two envelopes as the wire sees them: times by
// instant, and an empty data map like an absent one (omitempty drops it).
func sameEvent(a, b Event) bool {
	if a.Seq != b.Seq || a.Type != b.Type || a.Job != b.Job || !a.Time.Equal(b.Time) {
		return false
	}
	if len(a.Data) == 0 && len(b.Data) == 0 {
		return true
	}
	return reflect.DeepEqual(a.Data, b.Data)
}
