package metrics

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"dynunlock/internal/stream"
)

// defaultKeepAlive is the idle interval between SSE comment frames; it
// keeps proxies from reaping quiet connections between delta samples.
const defaultKeepAlive = 15 * time.Second

// serveEvents streams the bus over Server-Sent Events. Frame order per
// connection:
//
//  1. "hello"    — synthesized (no id line): proto version, the bus's
//     last sequence number, and resume/gap status.
//  2. "snapshot" — synthesized: the server registry's state at attach,
//     so a client starts from absolute totals before applying deltas.
//  3. bus events — each framed with its sequence number as the SSE id,
//     so a reconnecting client resumes via Last-Event-ID.
//  4. on graceful drain (Server.Shutdown): buffered events flush, then
//     one final synthesized "snapshot" carries the server registry's
//     terminal totals, then the stream ends with a closing comment
//     reporting the exact dropped count.
//
// Idle periods are bridged with ": keep-alive" comments. Slow clients
// never block the attack: the subscriber's ring drops oldest.
//
// ?job=<id> narrows the stream to one daemon job: only envelopes tagged
// with that job id are forwarded (sequence numbers keep their global
// values, still strictly increasing within the filtered view). The
// snapshots stay the server registry's: a job samples a registry of its
// own, so its totals travel in its closing "delta", the same sample that
// ends its bundle's trace.jsonl.
func (s *Server) serveEvents(w http.ResponseWriter, req *http.Request) {
	if s.bus == nil {
		http.Error(w, "metrics: no event stream attached (started without ServeBus)", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "metrics: streaming unsupported", http.StatusInternalServerError)
		return
	}
	job := req.URL.Query().Get("job")
	var last uint64
	if v := req.Header.Get("Last-Event-ID"); v != "" {
		last, _ = strconv.ParseUint(v, 10, 64)
	} else if v := req.URL.Query().Get("last-event-id"); v != "" {
		// A browser's SSE client cannot set the header on a fresh URL;
		// curl-style clients may prefer a query parameter.
		last, _ = strconv.ParseUint(v, 10, 64)
	}
	sub := s.bus.Subscribe(last)
	if !s.trackSSE(sub) {
		sub.Close()
		http.Error(w, "metrics: server draining", http.StatusServiceUnavailable)
		return
	}
	defer s.untrackSSE(sub)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream; charset=utf-8")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	helloData := map[string]any{
		"proto":    stream.Proto,
		"last_seq": s.bus.LastSeq(),
		"resumed":  last > 0 && !sub.Gap(),
		"gap":      sub.Gap(),
	}
	if job != "" {
		helloData["job"] = job
	}
	hello := stream.Event{Type: stream.TypeHello, Job: job, Time: time.Now(), Data: helloData}
	if stream.WriteEvent(w, hello) != nil {
		return
	}
	if stream.WriteEvent(w, s.snapshotEvent()) != nil {
		return
	}
	fl.Flush()

	ka := s.keepAlive
	if ka <= 0 {
		ka = defaultKeepAlive
	}
	for {
		ev, ok, timedOut := sub.Next(req.Context(), ka)
		if timedOut {
			if stream.WriteComment(w, "keep-alive") != nil {
				return
			}
			fl.Flush()
			continue
		}
		if !ok {
			if req.Context().Err() == nil {
				// Graceful drain: the buffered events have all been
				// delivered; end on the terminal totals.
				stream.WriteEvent(w, s.snapshotEvent())
				stream.WriteComment(w, fmt.Sprintf("stream closed dropped=%d", sub.Dropped()))
				fl.Flush()
			}
			return
		}
		if job != "" && ev.Job != job {
			continue
		}
		if stream.WriteEvent(w, ev) != nil {
			return
		}
		fl.Flush()
	}
}

// snapshotEvent builds a synthesized registry snapshot (Seq 0: it is
// per-connection state, not part of the bus ordering).
func (s *Server) snapshotEvent() stream.Event {
	s.refreshProcessGauges()
	return stream.Event{Type: stream.TypeSnapshot, Time: time.Now(), Data: s.reg.Snapshot()}
}
