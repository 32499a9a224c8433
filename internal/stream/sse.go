package stream

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Server-Sent-Events framing for the feed. One Event becomes one SSE
// frame:
//
//	id: <seq>             (omitted when Seq == 0: synthesized events
//	                       never disturb the client's Last-Event-ID)
//	event: <type>
//	data: <event JSON>    ({"seq","type","t","data"})
//	<blank line>
//
// The data payload is the complete Event envelope — the same JSON a
// -progress=json line carries — so the SSE feed, headless logs, and
// `runs watch` all share one parser (Decoder / ParseEvent). Keep-alive
// is a standard SSE comment line (": keep-alive"); the decoder skips
// comments and tolerates retry: hints.

// ErrCorrupt reports a malformed SSE stream or event envelope. `runs
// watch` maps it to its corrupt-stream exit code.
var ErrCorrupt = errors.New("stream: corrupt event stream")

// WriteEvent writes ev as one SSE frame. The caller flushes.
func WriteEvent(w io.Writer, ev Event) error {
	payload, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	var b strings.Builder
	b.Grow(len(payload) + 48)
	if ev.Seq > 0 {
		b.WriteString("id: ")
		b.WriteString(strconv.FormatUint(ev.Seq, 10))
		b.WriteByte('\n')
	}
	b.WriteString("event: ")
	b.WriteString(ev.Type)
	b.WriteByte('\n')
	b.WriteString("data: ")
	b.Write(payload)
	b.WriteString("\n\n")
	_, err = io.WriteString(w, b.String())
	return err
}

// WriteComment writes an SSE comment frame (": msg"). Comments carry no
// event and exist to keep idle connections alive through proxies.
func WriteComment(w io.Writer, msg string) error {
	_, err := io.WriteString(w, ": "+msg+"\n\n")
	return err
}

// ParseEvent decodes one event envelope (a data: payload or one
// -progress=json line), enforcing the schema: valid JSON with a known
// type.
func ParseEvent(b []byte) (Event, error) {
	var ev Event
	if err := json.Unmarshal(b, &ev); err != nil {
		return Event{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	switch ev.Type {
	case TypeHello, TypeSnapshot, TypeDelta, TypeDIP, TypeSpan, TypeResult, TypeJob:
		return ev, nil
	case "":
		return Event{}, fmt.Errorf("%w: event without a type", ErrCorrupt)
	}
	return Event{}, fmt.Errorf("%w: unknown event type %q", ErrCorrupt, ev.Type)
}

// Decoder reads SSE frames back into Events, validating the wire grammar
// as it goes: field lines must be id/event/data/retry or comments, the
// id line must equal the envelope's seq, and the event line must equal
// the envelope's type. It is the parser behind `runs watch` and the
// stream conformance tests.
type Decoder struct {
	sc *bufio.Scanner
}

// maxFrameBytes bounds one SSE line and the summed data lines of one
// frame (snapshots of large label spaces are the big ones).
const maxFrameBytes = 4 << 20

// NewDecoder wraps r. Frames of up to 4 MiB of data are accepted.
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxFrameBytes)
	return &Decoder{sc: sc}
}

// Next returns the next event. io.EOF signals a cleanly ended stream;
// any grammar violation, an over-long line or a frame with more than
// 4 MiB of data included, returns an error wrapping ErrCorrupt. Other
// errors are the reader's own (a broken connection).
func (d *Decoder) Next() (Event, error) {
	var (
		id       string
		typ      string
		data     []string
		dataSize int
		inFrame  bool
	)
	for d.sc.Scan() {
		line := d.sc.Text()
		line = strings.TrimSuffix(line, "\r")
		if line == "" {
			if !inFrame {
				continue // stray blank between frames
			}
			if len(data) == 0 {
				// id-/event-only frames carry nothing we emit; per the SSE
				// spec a frame without data dispatches no event.
				id, typ, inFrame = "", "", false
				continue
			}
			return d.assemble(id, typ, data)
		}
		if strings.HasPrefix(line, ":") {
			continue // comment / keep-alive
		}
		field, value, ok := strings.Cut(line, ":")
		if !ok {
			return Event{}, fmt.Errorf("%w: line %q has no field separator", ErrCorrupt, line)
		}
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			id = value
		case "event":
			typ = value
		case "data":
			if dataSize += len(value) + 1; dataSize > maxFrameBytes {
				return Event{}, fmt.Errorf("%w: frame data exceeds %d bytes", ErrCorrupt, maxFrameBytes)
			}
			data = append(data, value)
		case "retry":
			// reconnect hint; nothing to validate
		default:
			return Event{}, fmt.Errorf("%w: unknown SSE field %q", ErrCorrupt, field)
		}
		inFrame = true
	}
	if err := d.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return Event{}, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		return Event{}, err
	}
	if inFrame {
		return Event{}, fmt.Errorf("%w: stream ended mid-frame", ErrCorrupt)
	}
	return Event{}, io.EOF
}

// assemble validates one complete frame against its envelope.
func (d *Decoder) assemble(id, typ string, data []string) (Event, error) {
	ev, err := ParseEvent([]byte(strings.Join(data, "\n")))
	if err != nil {
		return Event{}, err
	}
	if typ != "" && typ != ev.Type {
		return Event{}, fmt.Errorf("%w: event line %q disagrees with envelope type %q", ErrCorrupt, typ, ev.Type)
	}
	if id != "" {
		seq, perr := strconv.ParseUint(id, 10, 64)
		if perr != nil || seq != ev.Seq {
			return Event{}, fmt.Errorf("%w: id line %q disagrees with envelope seq %d", ErrCorrupt, id, ev.Seq)
		}
	}
	return ev, nil
}
