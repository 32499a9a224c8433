package anatomy

import (
	"sync"

	"dynunlock/internal/flight"
)

// LBDBounds are the capture's LBD histogram bucket upper bounds: glue
// clauses (<=2) up to the long tail XOR-heavy instances produce. They
// mirror the live metrics histogram so the two views bin identically.
var LBDBounds = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// Capture accumulates live solver search telemetry for one experiment:
// sampled learnt-clause LBD/size observations and restarts, segmented at
// DIP boundaries. It implements satattack.SearchObserver (SearchLearnt,
// SearchRestart); the experiment's OnDIP hook calls ObserveDIP at each
// DIP boundary. All methods are mutex-serialized.
//
// Usage per trial: StartTrial, attack (hooks fire), EndTrial. Doc seals
// the accumulated trials into the anatomy.json document.
type Capture struct {
	mu     sync.Mutex
	trials []flight.TrialAnatomy
	cur    *trialCapture
}

// trialCapture is the in-flight state of one trial: trial-wide totals
// plus the open segment since the last DIP boundary.
type trialCapture struct {
	rec flight.TrialAnatomy
	seg flight.DIPSearchRecord
}

// NewCapture returns an empty capture.
func NewCapture() *Capture { return &Capture{} }

// StartTrial opens a trial segment; an unfinished previous trial is
// sealed first (defensive — callers pair StartTrial/EndTrial).
func (c *Capture) StartTrial(trial int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sealLocked()
	c.cur = &trialCapture{rec: flight.TrialAnatomy{Trial: trial}}
}

// EndTrial seals the in-flight trial into the document.
func (c *Capture) EndTrial() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sealLocked()
}

func (c *Capture) sealLocked() {
	if c.cur == nil {
		return
	}
	// Search work after the last DIP boundary (extraction, enumeration)
	// stays in the trial-wide totals; the open segment is not a DIP.
	c.trials = append(c.trials, c.cur.rec)
	c.cur = nil
}

// SearchLearnt implements satattack.SearchObserver: one sampled learnt
// clause.
func (c *Capture) SearchLearnt(lbd int32, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return
	}
	observeLBD(&c.cur.rec.LBD, lbd, size)
	observeLBD(&c.cur.seg.LBD, lbd, size)
}

// SearchRestart implements satattack.SearchObserver: one solver restart
// with its segment conflict count.
func (c *Capture) SearchRestart(conflicts uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return
	}
	c.cur.rec.Restarts++
	c.cur.rec.RestartConflicts += conflicts
	c.cur.seg.Restarts++
}

// ObserveDIP marks a DIP boundary: it seals the open telemetry segment as
// that iteration's record and returns the trial's cumulative telemetry
// for live publication — mean sampled LBD, sample count, and restarts so
// far. Outside a trial it records nothing and returns zeroes.
func (c *Capture) ObserveDIP(iteration int) (meanLBD float64, samples, restarts uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return 0, 0, 0
	}
	seg := c.cur.seg
	seg.Iteration = iteration
	c.cur.rec.DIPs = append(c.cur.rec.DIPs, seg)
	c.cur.seg = flight.DIPSearchRecord{}
	return c.cur.rec.LBD.MeanLBD(), c.cur.rec.LBD.Samples, c.cur.rec.Restarts
}

// Doc seals any in-flight trial and returns the anatomy.json document.
func (c *Capture) Doc() *flight.AnatomyDoc {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sealLocked()
	return &flight.AnatomyDoc{
		FormatVersion: flight.AnatomyDocVersion,
		LBDBounds:     append([]float64(nil), LBDBounds...),
		Trials:        append([]flight.TrialAnatomy(nil), c.trials...),
	}
}

// observeLBD bins one sample into a fixed-bucket LBD histogram
// (allocating the count slice lazily so empty histograms serialize
// compactly).
func observeLBD(h *flight.LBDHist, lbd int32, size int) {
	if h.Counts == nil {
		h.Counts = make([]uint64, len(LBDBounds)+1)
	}
	i := 0
	for i < len(LBDBounds) && float64(lbd) > LBDBounds[i] {
		i++
	}
	h.Counts[i]++
	h.Samples++
	h.SumLBD += uint64(lbd)
	h.SumSize += uint64(size)
}
