package satattack

import (
	"strconv"
	"time"

	"dynunlock/internal/metrics"
	"dynunlock/internal/sat"
)

// dipSolveBuckets spans 1ms to ~65s exponentially — the observed range of
// per-DIP SAT-call latencies from scaled quick runs to paper-scale
// circuits.
var dipSolveBuckets = metrics.ExpBuckets(0.001, 2, 17)

// lbdBuckets covers learnt-clause LBD: glue clauses (<=2) up to the long
// tail XOR-heavy instances produce.
var lbdBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

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

// newAttackMetrics creates the attack-level series tagged with the engine
// kind: "sequential" for one solver instance, "portfolio" for more. A nil
// handle returns nil.
func newAttackMetrics(h *metrics.Handle, instances int) *attackMetrics {
	if h == nil {
		return nil
	}
	engine := "sequential"
	if instances > 1 {
		engine = "portfolio"
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

// installSolverMetrics attaches a sampled sat.Hook publishing the
// instance's counters, learnt-DB gauge, and LBD histogram, and feeding
// the search observer (anatomy capture) when one is installed. With a nil
// handle and nil observer no hook is installed, so the solver keeps its
// zero-overhead search loop.
func installSolverMetrics(h *metrics.Handle, obs SearchObserver, s *sat.Solver, instance int) {
	if h == nil && obs == nil {
		return
	}
	hook := &sat.Hook{}
	if h != nil {
		inst := strconv.Itoa(instance)
		dec := h.Counter(metrics.MetricSatDecisions, "instance", inst)
		confl := h.Counter(metrics.MetricSatConflicts, "instance", inst)
		prop := h.Counter(metrics.MetricSatPropagations, "instance", inst)
		rest := h.Counter(metrics.MetricSatRestarts, "instance", inst)
		learnt := h.Counter(metrics.MetricSatLearnt, "instance", inst)
		removed := h.Counter(metrics.MetricSatRemoved, "instance", inst)
		xorProp := h.Counter(metrics.MetricSatXorPropagations, "instance", inst)
		xorConfl := h.Counter(metrics.MetricSatXorConflicts, "instance", inst)
		simpRemoved := h.Counter(metrics.MetricSatSimplifyRemoved, "instance", inst)
		simpStrength := h.Counter(metrics.MetricSatSimplifyStrengthened, "instance", inst)
		db := h.Gauge(metrics.MetricSatLearntDB, "instance", inst)
		lbd := h.Histogram(metrics.MetricSatLearntLBD, lbdBuckets, "instance", inst)
		hook.OnSample = func(d sat.Stats, learntDB int) {
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
		}
		hook.OnLearnt = func(l int32, size int) {
			lbd.Observe(float64(l))
		}
	}
	if obs != nil {
		// One hook per solver: compose the metrics publication (when live)
		// with the observer's capture in a single callback set.
		prevLearnt := hook.OnLearnt
		hook.OnLearnt = func(l int32, size int) {
			if prevLearnt != nil {
				prevLearnt(l, size)
			}
			obs.SearchLearnt(instance, l, size)
		}
		hook.OnRestart = func(conflicts uint64) {
			obs.SearchRestart(instance, conflicts)
		}
	}
	s.SetHook(hook)
}
