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

// newAttackMetrics creates the attack-level series. A nil registry
// returns nil.
func newAttackMetrics(r *metrics.Registry) *attackMetrics {
	if r == nil {
		return nil
	}
	return &attackMetrics{
		dips:       r.Counter(metrics.MetricAttackDIPs, "engine", engine),
		queries:    r.Counter(metrics.MetricAttackQueries, "engine", engine),
		iterations: r.Gauge(metrics.MetricAttackIterations, "engine", engine),
		dipSolve:   r.Histogram(metrics.MetricAttackDIPSolveSec, dipSolveBuckets, "engine", engine),
		encVars:    r.Counter(metrics.MetricEncodeVars, "engine", engine),
		encClauses: r.Counter(metrics.MetricEncodeClauses, "engine", engine),
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
// fills in r (nil with a nil registry). The experiment layer reads it to
// report each DIP's sampled LBD.
func LearntLBD(r *metrics.Registry) *metrics.Histogram {
	return r.Histogram(metrics.MetricSatLearntLBD, metrics.LBDBuckets, "instance", instance)
}

// installSolverMetrics attaches a sampled sat.Hook publishing the
// solver's counters, learnt-DB gauge, and LBD histogram. With a nil
// registry no hook is installed, so the solver keeps its zero-overhead
// search loop.
func installSolverMetrics(r *metrics.Registry, s *sat.Solver) {
	if r == nil {
		return
	}
	dec := r.Counter(metrics.MetricSatDecisions, "instance", instance)
	confl := r.Counter(metrics.MetricSatConflicts, "instance", instance)
	prop := r.Counter(metrics.MetricSatPropagations, "instance", instance)
	rest := r.Counter(metrics.MetricSatRestarts, "instance", instance)
	learnt := r.Counter(metrics.MetricSatLearnt, "instance", instance)
	removed := r.Counter(metrics.MetricSatRemoved, "instance", instance)
	xorProp := r.Counter(metrics.MetricSatXorPropagations, "instance", instance)
	xorConfl := r.Counter(metrics.MetricSatXorConflicts, "instance", instance)
	simpRemoved := r.Counter(metrics.MetricSatSimplifyRemoved, "instance", instance)
	simpStrength := r.Counter(metrics.MetricSatSimplifyStrengthened, "instance", instance)
	db := r.Gauge(metrics.MetricSatLearntDB, "instance", instance)
	lbd := LearntLBD(r)
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
