// Package stream is the live-streaming layer of the attack stack: a
// dependency-free, race-safe event bus that merges the existing
// telemetry extension points — metrics.Registry snapshots and deltas,
// trace span and result events, and one record per DIP iteration — into
// one ordered, typed event feed.
//
// The bus never blocks the attack hot path. Every subscriber owns a
// fixed-size ring buffer; when a slow client falls behind, the oldest
// buffered events are dropped (and counted exactly — Subscriber.Dropped)
// rather than stalling the publisher. With no subscribers attached the
// bus publishes nothing and allocates nothing beyond one atomic load per
// Publish call; TestStreamDoesNotPerturbAttack (package dynunlock) pins
// the attack path bit-identical in that state.
//
// Events carry a strictly increasing sequence number. The bus keeps a
// global resume ring of the most recent events so a reconnecting
// subscriber can continue from its SSE Last-Event-ID; when the requested
// position has already been evicted the subscriber is flagged (Gap) and
// resumes from the oldest retained event. Sequence numbers advance only
// while at least one subscriber is attached — events that nobody was
// listening for are never assigned a number, so resume is exact within
// the stream's own numbering.
//
// SSE framing for the feed lives in sse.go; the /events endpoint is in
// internal/metrics (the -metrics-addr mux), and `runs watch` is the
// terminal client.
package stream

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Event types, in the order a client typically sees them. The taxonomy
// is documented in DESIGN.md §3j.
const (
	// TypeHello opens every SSE connection: protocol version, the bus's
	// last assigned sequence number, and whether a Last-Event-ID resume
	// was honored. Synthesized per subscriber (Seq 0, no id line).
	TypeHello = "hello"
	// TypeSnapshot is a full metrics-registry dump: every published
	// series keyed "name{label=\"v\"}". Sent once on connect, and once
	// more as the final frame of a graceful drain, so the stream both
	// starts and ends with absolute totals.
	TypeSnapshot = "snapshot"
	// TypeDelta is a run's periodic metrics sample (its "snapshot"
	// trace event, see metrics.StartSampling): the run's benchmark and
	// key bits, iterations, conflict/propagation rates, learnt DB,
	// oracle cycles, encode vars/clauses, RSS, DIP solve percentiles and
	// the learnt-LBD distribution.
	TypeDelta = "delta"
	// TypeDIP is one DIP-loop iteration, published once per DIP: trial,
	// iteration, DIP and response bits, solve_ms, solver counters
	// (conflicts, propagations, learnt); and the search anatomy at that
	// boundary (difficulty, lbd_mean, lbd_samples, restarts, xor_share;
	// see internal/anatomy).
	TypeDIP = "dip"
	// TypeSpan is a completed attack stage (trace span_end): name,
	// duration, counters.
	TypeSpan = "span"
	// TypeResult is a terminal summary. data.scope distinguishes a
	// per-trial result ("trial") from the experiment-terminal one
	// ("experiment") that ends a `runs watch` session.
	TypeResult = "result"
	// TypeJob is a daemon job lifecycle transition (internal/daemon):
	// data carries the job id, the new state
	// (queued/admitted/running/draining/done/failed/evicted), and
	// state-specific fields (queue position, worker, error, bundle dir).
	TypeJob = "job"
)

// Proto is the stream schema version carried in hello events. Bump it
// when the event envelope or the meaning of a type changes; dropping a
// field documented as optional does not. Version 2 folded the per-DIP
// "stage" and "insight" events into "dip".
const Proto = 2

// Event is one feed entry. Seq is the bus-assigned ordering (0 on
// per-subscriber synthesized events, which carry no SSE id line and so
// never disturb a client's Last-Event-ID); Data is type-specific. Job
// tags the envelope with the daemon job that published it (empty for
// single-attack CLIs and daemon-global events): the /events?job=<id>
// filter and per-job `runs watch -job` both select on it.
type Event struct {
	Seq  uint64         `json:"seq,omitempty"`
	Type string         `json:"type"`
	Job  string         `json:"job,omitempty"`
	Time time.Time      `json:"t"`
	Data map[string]any `json:"data,omitempty"`
}

// Ring and per-subscriber buffer capacities. The resume ring is sized
// for a reconnect window of several delta periods plus the DIP burst
// rate of the fastest benchmarks; the subscriber buffer only has to
// cover one slow write, not a disconnect.
const (
	DefaultRingSize         = 1024
	DefaultSubscriberBuffer = 256
)

// Bus is a handle on the fan-out hub. The zero value is not usable;
// construct with NewBus. All methods are safe for concurrent use, and
// Enabled/Publish are additionally nil-safe so instrumentation points
// never branch on the bus's presence.
//
// A Bus is a thin view over a shared core: WithJob derives a second
// handle on the same subscribers and resume ring whose published events
// carry a job tag. Handles share sequence numbering, so aggregate
// consumers see one strictly increasing stream interleaving every job.
type Bus struct {
	core *busCore
	job  string
}

// busCore holds the state shared by every Bus view: the resume ring,
// subscriber set, and sequence counter.
type busCore struct {
	ringCap int
	subCap  int

	// subscribers is the attached-subscriber count, readable without the
	// mutex: the Publish fast path is one atomic load when nobody
	// listens.
	subscribers atomic.Int32
	// lastSeq mirrors seq for lock-free LastSeq reads.
	lastSeq atomic.Uint64

	mu   sync.Mutex
	seq  uint64
	ring []Event // resume ring, oldest at head
	head int
	subs map[*Subscriber]struct{}
}

// NewBus returns a bus with the default ring and subscriber-buffer
// capacities.
func NewBus() *Bus { return NewBusSized(DefaultRingSize, DefaultSubscriberBuffer) }

// NewBusSized returns a bus with explicit capacities (values < 1 select
// the defaults). Small capacities are how the drop-oldest tests force
// overflow deterministically.
func NewBusSized(ringCap, subCap int) *Bus {
	if ringCap < 1 {
		ringCap = DefaultRingSize
	}
	if subCap < 1 {
		subCap = DefaultSubscriberBuffer
	}
	return &Bus{core: &busCore{ringCap: ringCap, subCap: subCap, subs: make(map[*Subscriber]struct{})}}
}

// WithJob returns a view of the same bus whose published events are
// tagged with job id. Subscribers, the resume ring, and sequence
// numbering are shared with the parent; only the Job field of events
// published through the returned handle differs. An empty id (or a nil
// receiver) returns the receiver unchanged.
func (b *Bus) WithJob(id string) *Bus {
	if b == nil || id == "" || id == b.job {
		return b
	}
	return &Bus{core: b.core, job: id}
}

// Enabled reports whether at least one subscriber is attached. Nil-safe
// and lock-free: publishers call it before building an event payload so
// the no-subscriber path allocates nothing.
func (b *Bus) Enabled() bool {
	return b != nil && b.core.subscribers.Load() > 0
}

// LastSeq returns the most recently assigned sequence number (0 before
// the first published event). Nil-safe.
func (b *Bus) LastSeq() uint64 {
	if b == nil {
		return 0
	}
	return b.core.lastSeq.Load()
}

// Publish assigns the next sequence number to a typ event carrying data
// and fans it out to every subscriber, retaining it in the resume ring.
// With no subscribers attached (or a nil bus) the event is
// discarded without a sequence number. The data map is retained by the
// ring and subscriber buffers; callers must not mutate it afterwards.
// Publish never blocks on a slow subscriber.
func (b *Bus) Publish(typ string, data map[string]any) {
	if !b.Enabled() {
		return
	}
	now := time.Now()
	c := b.core
	c.mu.Lock()
	if len(c.subs) == 0 {
		c.mu.Unlock()
		return
	}
	c.seq++
	ev := Event{Seq: c.seq, Type: typ, Job: b.job, Time: now, Data: data}
	if len(c.ring) < c.ringCap {
		c.ring = append(c.ring, ev)
	} else {
		c.ring[c.head] = ev
		c.head = (c.head + 1) % c.ringCap
	}
	for s := range c.subs {
		s.push(ev)
	}
	c.lastSeq.Store(c.seq)
	c.mu.Unlock()
}

// Subscribe attaches a new subscriber. A nonzero lastEventID requests a
// resume: every retained event with Seq > lastEventID is replayed into
// the subscriber's buffer before live delivery begins. If the requested
// position has already been evicted from the ring, the subscriber's Gap
// flag is set and delivery starts from the oldest retained event.
func (b *Bus) Subscribe(lastEventID uint64) *Subscriber {
	c := b.core
	s := &Subscriber{bus: c, cap: c.subCap, notify: make(chan struct{}, 1)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if lastEventID < c.seq {
		n := len(c.ring)
		if n > 0 {
			oldest := c.ring[c.head%n].Seq
			if lastEventID+1 < oldest {
				s.gap = true
			}
			for i := 0; i < n; i++ {
				ev := c.ring[(c.head+i)%n]
				if ev.Seq > lastEventID {
					s.push(ev)
				}
			}
		}
	}
	c.subs[s] = struct{}{}
	c.subscribers.Add(1)
	return s
}

// detach removes s from the live set (idempotent).
func (c *busCore) detach(s *Subscriber) {
	c.mu.Lock()
	if _, ok := c.subs[s]; ok {
		delete(c.subs, s)
		c.subscribers.Add(-1)
	}
	c.mu.Unlock()
}

// Subscriber is one attached client. Events are buffered in a private
// drop-oldest ring and consumed with Next; Close detaches from the bus.
// A Subscriber is safe for one consuming goroutine concurrent with the
// bus's publishers.
type Subscriber struct {
	bus    *busCore
	cap    int
	notify chan struct{}

	mu      sync.Mutex
	buf     []Event
	head, n int
	dropped uint64
	gap     bool
	closed  bool
}

// push appends ev, evicting the oldest buffered event when full.
func (s *Subscriber) push(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.buf == nil {
		s.buf = make([]Event, s.cap)
	}
	if s.n == len(s.buf) {
		s.head = (s.head + 1) % len(s.buf)
		s.n--
		s.dropped++
	}
	s.buf[(s.head+s.n)%len(s.buf)] = ev
	s.n++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// pop removes the oldest buffered event.
func (s *Subscriber) pop() (Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Event{}, false
	}
	ev := s.buf[s.head]
	s.buf[s.head] = Event{}
	s.head = (s.head + 1) % len(s.buf)
	s.n--
	return ev, true
}

// Next returns the next buffered event, waiting until one arrives. ok is
// false once the subscriber is closed and its buffer drained, or when
// ctx is done. A positive timeout bounds the wait: when it elapses with
// no event, Next returns timedOut=true (and ok=false) so SSE handlers
// can emit keep-alive comments on idle streams; timeout <= 0 waits
// indefinitely.
func (s *Subscriber) Next(ctx context.Context, timeout time.Duration) (ev Event, ok, timedOut bool) {
	var timer *time.Timer
	var timeC <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		timeC = timer.C
		defer timer.Stop()
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for {
		if ev, got := s.pop(); got {
			return ev, true, false
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return Event{}, false, false
		}
		select {
		case <-s.notify:
		case <-done:
			return Event{}, false, false
		case <-timeC:
			return Event{}, false, true
		}
	}
}

// Dropped returns the exact number of events evicted from this
// subscriber's buffer because the client consumed too slowly.
func (s *Subscriber) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Gap reports that the Last-Event-ID resume position had already been
// evicted from the bus's ring, so events were missed despite the resume.
func (s *Subscriber) Gap() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gap
}

// Close detaches the subscriber from the bus. Buffered events remain
// readable via Next until drained; afterwards Next reports ok=false.
// Idempotent and safe concurrent with the bus.
func (s *Subscriber) Close() {
	if s == nil {
		return
	}
	s.bus.detach(s)
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	// Wake a blocked Next.
	select {
	case s.notify <- struct{}{}:
	default:
	}
}
