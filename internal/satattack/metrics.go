package satattack

import (
	"time"

	"dynunlock/internal/metrics"
	"dynunlock/internal/sat"
)

// dipSolveBuckets spans 1ms to ~65s exponentially — the observed range of
// per-DIP SAT-call latencies from scaled quick runs to paper-scale
// circuits.
var dipSolveBuckets = metrics.ExpBuckets(0.001, 2, 17)

// attackMetrics bundles the live instruments of one attack run. The nil
// pointer is the disabled state: every method is a no-op and the hot loop
// performs no timing work, keeping the unmonitored path allocation-free.
type attackMetrics struct {
	dips       *metrics.Counter
	queries    *metrics.Counter
	iterations *metrics.Gauge
	dipSolve   *metrics.Histogram
	encVars    *metrics.Counter
	encClauses *metrics.Counter
}

// engine and instance label the attack-level and solver series. The
// attack runs one solver; the labels keep the published series names and
// labels stable for dashboards and scrapes.
const (
	engine   = "sequential"
	instance = "0"
)

// newAttackMetrics creates the attack-level series. A nil handle returns
// nil.
func newAttackMetrics(h *metrics.Handle) *attackMetrics {
	if h == nil {
		return nil
	}
	return &attackMetrics{
		dips:       h.Counter(metrics.MetricAttackDIPs, "engine", engine),
		queries:    h.Counter(metrics.MetricAttackQueries, "engine", engine),
		iterations: h.Gauge(metrics.MetricAttackIterations, "engine", engine),
		dipSolve:   h.Histogram(metrics.MetricAttackDIPSolveSec, dipSolveBuckets, "engine", engine),
		encVars:    h.Counter(metrics.MetricEncodeVars, "engine", engine),
		encClauses: h.Counter(metrics.MetricEncodeClauses, "engine", engine),
	}
}

// observeEncode records the CNF growth of one encoding step: the initial
// miter construction or one DIP-constrained circuit-copy pair.
func (m *attackMetrics) observeEncode(vars, clauses uint64) {
	if m == nil {
		return
	}
	m.encVars.Add(vars)
	m.encClauses.Add(clauses)
}

// observeSolve records one DIP-loop SAT call's wall-clock latency.
func (m *attackMetrics) observeSolve(elapsed time.Duration) {
	if m == nil {
		return
	}
	m.dipSolve.Observe(elapsed.Seconds())
}

// observeDIP records a completed iteration: one DIP found, one oracle
// query issued.
func (m *attackMetrics) observeDIP(iterations int) {
	if m == nil {
		return
	}
	m.dips.Inc()
	m.queries.Inc()
	m.iterations.Set(float64(iterations))
}

// LearntLBD returns the learnt-clause LBD series that the solver hook
// fills in h's scope (nil with a nil handle). The experiment layer reads
// it to report each DIP's sampled LBD.
func LearntLBD(h *metrics.Handle) *metrics.Histogram {
	return h.Histogram(metrics.MetricSatLearntLBD, metrics.LBDBuckets, "instance", instance)
}

// installSolverMetrics attaches a sampled sat.Hook publishing the
// solver's counters, learnt-DB gauge, and LBD histogram. With a nil
// handle no hook is installed, so the solver keeps its zero-overhead
// search loop.
func installSolverMetrics(h *metrics.Handle, s *sat.Solver) {
	if h == nil {
		return
	}
	dec := h.Counter(metrics.MetricSatDecisions, "instance", instance)
	confl := h.Counter(metrics.MetricSatConflicts, "instance", instance)
	prop := h.Counter(metrics.MetricSatPropagations, "instance", instance)
	rest := h.Counter(metrics.MetricSatRestarts, "instance", instance)
	learnt := h.Counter(metrics.MetricSatLearnt, "instance", instance)
	removed := h.Counter(metrics.MetricSatRemoved, "instance", instance)
	xorProp := h.Counter(metrics.MetricSatXorPropagations, "instance", instance)
	xorConfl := h.Counter(metrics.MetricSatXorConflicts, "instance", instance)
	simpRemoved := h.Counter(metrics.MetricSatSimplifyRemoved, "instance", instance)
	simpStrength := h.Counter(metrics.MetricSatSimplifyStrengthened, "instance", instance)
	db := h.Gauge(metrics.MetricSatLearntDB, "instance", instance)
	lbd := LearntLBD(h)
	s.SetHook(&sat.Hook{
		OnSample: func(d sat.Stats, learntDB int) {
			dec.Add(d.Decisions)
			confl.Add(d.Conflicts)
			prop.Add(d.Propagations)
			rest.Add(d.Restarts)
			learnt.Add(d.Learnt)
			removed.Add(d.Removed)
			xorProp.Add(d.XorPropagations)
			xorConfl.Add(d.XorConflicts)
			simpRemoved.Add(d.SimplifyRemoved)
			simpStrength.Add(d.SimplifyStrengthened)
			db.Set(float64(learntDB))
		},
		OnLearnt: func(l int32, size int) {
			lbd.Observe(float64(l))
		},
	})
}
