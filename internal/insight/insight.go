// Package insight answers the operator's mid-run question — how close is
// the attack to the seed? — by turning every oracle DIP into certified
// GF(2) knowledge about the LFSR seed.
//
// DynUnlock's obfuscation is affine over GF(2) in the seed s (paper
// §III): a scan session computes (po, b') = C(pi, a ⊕ A·s) and observes
// b' ⊕ B·s. The tracker symbolically simulates the core circuit C on
// each DIP with every signal carrying either an affine form ℓ(s) ⊕ c
// over the seed bits or the "nonlinear" marker ⊤: XOR/XNOR/NOT/BUF
// preserve affine forms exactly, AND/OR partially evaluate against
// constant operands (AND(f,0)=0, AND(f,1)=f, …), and anything genuinely
// nonlinear collapses to ⊤. Every non-⊤ output bit then yields one
// sound linear constraint row over s, which feeds an incremental
// row-echelon basis (gf2.Basis). The running rank r bounds the
// surviving seed space at exactly 2^(k−r) *for the constraints
// certified so far*; on affine cores (XOR-dominated circuits, and the
// lock layer itself is always XOR) the tracker captures all information
// a DIP reveals, and the bound matches brute-force enumeration bit for
// bit (pinned by tests against core.Verifier).
//
// Rank is capped by rank([A;B]) — every certified row lies in the row
// space of the session masks — so that cap is the published target and
// the base of the DIP-rate ETA. Progress is published three ways:
// metrics gauges (dynunlock_insight_*), the snapshot Observe returns
// (the experiment layer folds it into each DIP's "dip" stream event),
// and the run's periodic metrics sample, which picks the gauges up
// (internal/metrics.StartSampling). The tracker is safe for concurrent Observe calls and its
// final rank is insertion-order independent.
package insight

import (
	"fmt"
	"sync"
	"time"

	"dynunlock/internal/core"
	"dynunlock/internal/gf2"
	"dynunlock/internal/lock"
	"dynunlock/internal/metrics"
	"dynunlock/internal/netlist"
)

// Options configures a Tracker's publication sink. The zero value is a
// silent tracker (state queries only).
type Options struct {
	// Metrics, when non-nil, receives the insight gauges.
	Metrics *metrics.Registry
	// Now overrides the clock used for the ETA estimate (tests).
	Now func() time.Time
}

// Snapshot is the tracker's current state.
type Snapshot struct {
	DIPs int
	Rank int
	// TargetRank is rank([A;B]): the ceiling on the certifiable rank and
	// the analytic constraint count the attack converges to.
	TargetRank int
	KeyBits    int
	// SeedsLog2 = KeyBits − Rank.
	SeedsLog2 int
	// Rows counts certified constraint rows inserted (including
	// dependent ones); Skipped counts response bits that simulated to ⊤
	// and carried no certifiable linear information.
	Rows, Skipped int
	// Inconsistent is true when a certified constraint contradicted an
	// earlier one — impossible against a faithful oracle, so it flags a
	// model/oracle mismatch.
	Inconsistent bool
	// ETA estimates the time until Rank reaches TargetRank from the
	// average rank gain per unit time so far; negative when no rank has
	// been learned yet (unknown).
	ETA time.Duration
}

// Tracker accumulates certified seed constraints across the DIPs of one
// attack trial. All methods are safe for concurrent use.
type Tracker struct {
	d      *lock.Design
	view   *netlist.CombView
	a, b   *gf2.Mat
	k      int
	target int

	r *metrics.Registry

	mu      sync.Mutex
	basis   *gf2.Basis
	dips    int
	rows    int
	skipped int
	start   time.Time
	now     func() time.Time
	started bool
	forms   []form // per-signal scratch, reused across Observe calls
}

// New builds a tracker for one trial against the given locked design.
func New(d *lock.Design, opts Options) (*Tracker, error) {
	A, B, err := core.MaskMatrices(d, 0)
	if err != nil {
		return nil, fmt.Errorf("insight: %w", err)
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	k := d.Config.KeyBits
	t := &Tracker{
		d:      d,
		view:   d.View,
		a:      A,
		b:      B,
		k:      k,
		target: gf2.Rank(gf2.VStack(A, B)),
		r:      opts.Metrics,
		basis:  gf2.NewBasis(k),
		now:    now,
		forms:  make([]form, d.Netlist.NumSignals()),
	}
	if t.r != nil {
		t.r.Gauge(metrics.MetricInsightRankTarget).Set(float64(t.target))
		t.r.Gauge(metrics.MetricInsightRank).Set(0)
		t.r.Gauge(metrics.MetricInsightSeedsLog2).Set(float64(k))
	}
	return t, nil
}

// Observe absorbs one DIP and returns the tracker's state after it: dip
// is the model input vector (primary inputs followed by the scan-in
// vector, as delivered by the OnDIP hook) and resp the oracle response
// (primary outputs followed by the observed scan-out). Vectors of the
// wrong length are ignored.
func (t *Tracker) Observe(dip, resp []bool) Snapshot {
	numPI, numPO := t.view.NumPI, t.view.NumPO
	n := t.d.Chain.Length
	if len(dip) != numPI+n || len(resp) != numPO+n {
		return t.Snapshot()
	}
	t.mu.Lock()
	if !t.started {
		t.started = true
		t.start = t.now()
	}
	prevRank := t.basis.Rank()
	t.simulate(dip)
	for j := 0; j < numPO; j++ {
		t.insert(t.forms[t.view.Outputs[j]], gf2.Vec{}, resp[j])
	}
	for j := 0; j < n; j++ {
		t.insert(t.forms[t.view.Outputs[numPO+j]], t.b.Row(j), resp[numPO+j])
	}
	t.dips++
	learned := t.basis.Rank() - prevRank
	snap := t.snapshotLocked()
	t.mu.Unlock()
	t.publish(snap, learned)
	return snap
}

// insert certifies one response bit: a non-⊤ form f plus an optional
// extra mask row (the scan-out B row) gives the constraint
// (lin(f) ⊕ mask)·s = observed ⊕ const(f).
func (t *Tracker) insert(f form, mask gf2.Vec, observed bool) {
	if f.top {
		t.skipped++
		return
	}
	row := f.lin
	if row.Len() == 0 {
		if mask.Len() == 0 {
			// Fully constant bit: no seed information (and against a
			// faithful oracle, always consistent).
			if f.c != observed {
				t.basis.Insert(gf2.NewVec(t.k), true)
				t.rows++
			}
			return
		}
		row = mask
	} else if mask.Len() != 0 {
		row = row.XorInto(mask)
	}
	t.rows++
	t.basis.Insert(row, observed != f.c)
}

func (t *Tracker) snapshotLocked() Snapshot {
	rank := t.basis.Rank()
	s := Snapshot{
		DIPs:         t.dips,
		Rank:         rank,
		TargetRank:   t.target,
		KeyBits:      t.k,
		SeedsLog2:    t.k - rank,
		Rows:         t.rows,
		Skipped:      t.skipped,
		Inconsistent: t.basis.Inconsistent(),
		ETA:          -1,
	}
	if rank >= t.target {
		s.ETA = 0
	} else if rank > 0 && t.started {
		elapsed := t.now().Sub(t.start)
		if elapsed > 0 {
			s.ETA = time.Duration(float64(elapsed) * float64(t.target-rank) / float64(rank))
		}
	}
	return s
}

// Snapshot returns the tracker's current state.
func (t *Tracker) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

// publish pushes a snapshot to the metrics gauges.
func (t *Tracker) publish(s Snapshot, learned int) {
	if t.r == nil {
		return
	}
	t.r.Gauge(metrics.MetricInsightRank).Set(float64(s.Rank))
	t.r.Gauge(metrics.MetricInsightRankTarget).Set(float64(s.TargetRank))
	t.r.Gauge(metrics.MetricInsightSeedsLog2).Set(float64(s.SeedsLog2))
	t.r.Counter(metrics.MetricInsightBits).Add(uint64(learned))
	if s.ETA >= 0 {
		t.r.Gauge(metrics.MetricInsightETA).Set(s.ETA.Seconds())
	}
}
