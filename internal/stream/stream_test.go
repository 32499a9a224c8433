package stream

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func collect(t *testing.T, s *Subscriber, n int) []Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out := make([]Event, 0, n)
	for len(out) < n {
		ev, ok, timedOut := s.Next(ctx, 0)
		if timedOut {
			t.Fatal("unexpected timeout")
		}
		if !ok {
			t.Fatalf("subscriber closed after %d of %d events", len(out), n)
		}
		out = append(out, ev)
	}
	return out
}

func TestPublishWithoutSubscribersIsDiscarded(t *testing.T) {
	b := NewBus()
	if b.Enabled() {
		t.Fatal("fresh bus reports enabled")
	}
	b.Publish(TypeDelta, map[string]any{"x": 1})
	if got := b.LastSeq(); got != 0 {
		t.Fatalf("LastSeq = %d after no-subscriber publish, want 0", got)
	}
	// Nil-safety: instrumentation points call these without branching.
	var nb *Bus
	if nb.Enabled() {
		t.Fatal("nil bus enabled")
	}
	if nb.LastSeq() != 0 {
		t.Fatal("nil bus LastSeq != 0")
	}
	nb.Publish(TypeDelta, nil)
	var ns *Subscriber
	ns.Close()
}

func TestOrderedDelivery(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(0)
	defer s.Close()
	for i := 0; i < 10; i++ {
		b.Publish(TypeDelta, map[string]any{"i": i})
	}
	evs := collect(t, s, 10)
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Type != TypeDelta {
			t.Fatalf("event %d has type %q", i, ev.Type)
		}
	}
	if b.LastSeq() != 10 {
		t.Fatalf("LastSeq = %d, want 10", b.LastSeq())
	}
}

func TestDropOldestCountsExactly(t *testing.T) {
	b := NewBusSized(64, 4)
	s := b.Subscribe(0)
	defer s.Close()
	for i := 0; i < 10; i++ {
		b.Publish(TypeDIP, map[string]any{"i": i})
	}
	if got := s.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6 (10 published into a 4-slot buffer)", got)
	}
	evs := collect(t, s, 4)
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("survivor %d has seq %d, want %d (oldest dropped first)", i, ev.Seq, want)
		}
	}
}

func TestResumeFromLastEventID(t *testing.T) {
	b := NewBus()
	anchor := b.Subscribe(0) // keeps the bus enabled throughout
	defer anchor.Close()
	for i := 0; i < 20; i++ {
		b.Publish(TypeDelta, nil)
	}
	s := b.Subscribe(15)
	defer s.Close()
	evs := collect(t, s, 5)
	for i, ev := range evs {
		if want := uint64(16 + i); ev.Seq != want {
			t.Fatalf("resumed event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	if s.Gap() {
		t.Fatal("gap flagged although the resume position was retained")
	}
	// Resuming from the current position replays nothing and goes live.
	live := b.Subscribe(20)
	defer live.Close()
	b.Publish(TypeResult, nil)
	evs = collect(t, live, 1)
	if evs[0].Seq != 21 {
		t.Fatalf("live event seq = %d, want 21", evs[0].Seq)
	}
}

func TestResumeGapWhenRingEvicted(t *testing.T) {
	b := NewBusSized(8, 64)
	anchor := b.Subscribe(0)
	defer anchor.Close()
	for i := 0; i < 20; i++ {
		b.Publish(TypeDelta, nil)
	}
	// Ring retains 13..20; a client that last saw 5 has a gap.
	s := b.Subscribe(5)
	defer s.Close()
	if !s.Gap() {
		t.Fatal("gap not flagged for an evicted resume position")
	}
	evs := collect(t, s, 8)
	if evs[0].Seq != 13 || evs[7].Seq != 20 {
		t.Fatalf("gap resume delivered seq %d..%d, want 13..20", evs[0].Seq, evs[7].Seq)
	}
}

func TestNextTimeoutSignalsKeepAlive(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(0)
	defer s.Close()
	_, ok, timedOut := s.Next(context.Background(), 10*time.Millisecond)
	if ok || !timedOut {
		t.Fatalf("Next on idle stream: ok=%v timedOut=%v, want false/true", ok, timedOut)
	}
}

// A closed subscriber still delivers what it buffered, then ends: the
// server's drain relies on it.
func TestCloseDrainsThenEnds(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(0)
	b.Publish(TypeDelta, nil)
	b.Publish(TypeResult, nil)
	s.Close()
	evs := collect(t, s, 2)
	if evs[1].Type != TypeResult {
		t.Fatalf("last drained event is %q, want result", evs[1].Type)
	}
	if _, ok, _ := s.Next(context.Background(), 0); ok {
		t.Fatal("Next returned an event after drain of a closed subscriber")
	}
}

func TestConcurrentPublishSubscribeUnsubscribe(t *testing.T) {
	b := NewBusSized(128, 32)
	stopPub := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopPub:
					return
				default:
				}
				b.Publish(TypeDelta, map[string]any{"pub": p, "i": i})
			}
		}(p)
	}
	var subWG sync.WaitGroup
	for c := 0; c < 8; c++ {
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			for r := 0; r < 20; r++ {
				s := b.Subscribe(0)
				var last uint64
				for n := 0; n < 10; n++ {
					ev, ok, timedOut := s.Next(context.Background(), 50*time.Millisecond)
					if !ok || timedOut {
						break
					}
					if ev.Seq <= last {
						t.Errorf("out-of-order delivery: seq %d after %d", ev.Seq, last)
						break
					}
					last = ev.Seq
				}
				s.Close()
			}
		}()
	}
	subWG.Wait()
	close(stopPub)
	wg.Wait()
}

func TestSubscriberCloseWakesBlockedNext(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(0)
	done := make(chan struct{})
	go func() {
		s.Next(context.Background(), 0)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not wake on Close")
	}
}

func TestPublishedDataIsNotCopiedButSeqIsStable(t *testing.T) {
	// Documented contract: the data map is retained; publishers hand it
	// off. Verify the ring serves the same map to a resuming client.
	b := NewBus()
	anchor := b.Subscribe(0)
	defer anchor.Close()
	m := map[string]any{"k": "v"}
	b.Publish(TypeDIP, m)
	s := b.Subscribe(0)
	defer s.Close()
	evs := collect(t, s, 1)
	if fmt.Sprint(evs[0].Data) != fmt.Sprint(m) {
		t.Fatalf("resumed event data %v, want %v", evs[0].Data, m)
	}
}

func TestResumeRingWraparoundAccounting(t *testing.T) {
	// Regression: a subscriber resuming from a Last-Event-ID older than
	// the ring must (a) be flagged Gap so the SSE layer re-sends a fresh
	// snapshot, (b) receive exactly the retained suffix in order, and
	// (c) account every replay eviction in Dropped. Ring 8, subscriber
	// buffer 4: publish 20 events so the ring wraps (holds 13..20), then
	// resume from seq 2 — the 8 retained events overflow the 4-slot
	// buffer, evicting 13..16.
	b := NewBusSized(8, 4)
	anchor := b.Subscribe(0)
	defer anchor.Close()
	for i := 1; i <= 20; i++ {
		b.Publish(TypeDelta, map[string]any{"i": i})
	}
	s := b.Subscribe(2)
	defer s.Close()
	if !s.Gap() {
		t.Fatal("resume older than the ring did not set Gap")
	}
	if got := s.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d after replay overflow, want exactly 4", got)
	}
	evs := collect(t, s, 4)
	for i, ev := range evs {
		if want := uint64(17 + i); ev.Seq != want {
			t.Fatalf("event %d: seq %d, want %d", i, ev.Seq, want)
		}
	}
	// Live delivery continues with no further loss and exact accounting.
	b.Publish(TypeDelta, map[string]any{"i": 21})
	evs = collect(t, s, 1)
	if evs[0].Seq != 21 {
		t.Fatalf("live event seq %d, want 21", evs[0].Seq)
	}
	if got := s.Dropped(); got != 4 {
		t.Fatalf("Dropped drifted to %d after live delivery, want 4", got)
	}
}

func TestResumeWithinRingExactNoGap(t *testing.T) {
	// Complement to the wraparound case: a resume position still inside
	// the ring replays the exact suffix with no gap and no drops.
	b := NewBusSized(8, 8)
	anchor := b.Subscribe(0)
	defer anchor.Close()
	for i := 1; i <= 10; i++ {
		b.Publish(TypeDelta, map[string]any{"i": i})
	}
	s := b.Subscribe(6) // ring holds 3..10; 6+1 >= oldest 3
	defer s.Close()
	if s.Gap() {
		t.Fatal("in-ring resume flagged Gap")
	}
	if got := s.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d on in-ring resume, want 0", got)
	}
	evs := collect(t, s, 4)
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("event %d: seq %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestWithJobTagsEnvelopes(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(0)
	defer s.Close()
	j1 := b.WithJob("job-1")
	j2 := b.WithJob("job-2")
	b.Publish(TypeDelta, nil)
	j1.Publish(TypeDIP, nil)
	j2.Publish(TypeDIP, nil)
	j1.Publish(TypeResult, nil)
	evs := collect(t, s, 4)
	wantJobs := []string{"", "job-1", "job-2", "job-1"}
	for i, ev := range evs {
		if ev.Job != wantJobs[i] {
			t.Fatalf("event %d: job %q, want %q", i, ev.Job, wantJobs[i])
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d: seq %d, want %d — views must share numbering", i, ev.Seq, i+1)
		}
	}
	// Views share subscribers and numbering.
	if !j1.Enabled() || j1.LastSeq() != 4 {
		t.Fatalf("view state diverged: enabled=%v lastSeq=%d", j1.Enabled(), j1.LastSeq())
	}
	if got := b.WithJob(""); got != b {
		t.Fatal("WithJob(\"\") should return the receiver")
	}
	if got := j1.WithJob("job-1"); got != j1 {
		t.Fatal("WithJob with same id should return the receiver")
	}
	var nb *Bus
	if nb.WithJob("x") != nil {
		t.Fatal("nil bus WithJob not nil-safe")
	}
}
