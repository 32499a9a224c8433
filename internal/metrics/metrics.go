// Package metrics is the live-telemetry layer of the attack stack: a
// dependency-free, concurrency-safe registry of named counters, gauges,
// and fixed-bucket histograms, exported over HTTP (server.go) in
// Prometheus text exposition and expvar JSON formats, and rendered as a
// periodic one-line progress snapshot (progress.go).
//
// The design mirrors internal/trace: the registry rides on
// context.Context (With / From / WithLabels), every handle and instrument
// is nil-safe, and the disabled path — no registry on the context — costs
// one pointer check per call site and allocates nothing, so an
// uninstrumented run reproduces the unmonitored code paths bit for bit.
// Unlike trace spans, which report a stage after it ends, instruments are
// updated from inside the hot loops (atomic operations only) so an HTTP
// scrape observes a run while it is in flight.
//
// Metric naming follows Prometheus conventions and is documented in
// DESIGN.md §3e: dynunlock_sat_* (solver), dynunlock_attack_* (DIP loop),
// dynunlock_oracle_* (tester time), dynunlock_sweep_* (condition sweeps),
// dynunlock_process_* (runtime).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Canonical metric names published by the instrumented attack stack.
// Shared between the publishing layers (sat hooks, satattack, core, bench)
// and the consumers (progress reporter, tests, CI scrape assertions).
const (
	// Solver series (label: instance; plus any context base labels).
	MetricSatDecisions    = "dynunlock_sat_decisions_total"
	MetricSatConflicts    = "dynunlock_sat_conflicts_total"
	MetricSatPropagations = "dynunlock_sat_propagations_total"
	MetricSatRestarts     = "dynunlock_sat_restarts_total"
	MetricSatLearnt       = "dynunlock_sat_learnt_total"
	MetricSatRemoved      = "dynunlock_sat_removed_total"
	MetricSatLearntDB     = "dynunlock_sat_learnt_db_size"
	MetricSatLearntLBD    = "dynunlock_sat_learnt_lbd"
	// GF(2) layer: literals implied by unit XOR rows and conflicts raised
	// by violated rows (zero on pure-CNF instances).
	MetricSatXorPropagations = "dynunlock_sat_xor_propagations_total"
	MetricSatXorConflicts    = "dynunlock_sat_xor_conflicts_total"
	// Inprocessing layer (Solver.Simplify, run between DIPs): clauses
	// removed as satisfied at the top level and falsified literals
	// strengthened out of surviving clauses.
	MetricSatSimplifyRemoved      = "dynunlock_sat_simplify_removed_total"
	MetricSatSimplifyStrengthened = "dynunlock_sat_simplify_strengthened_total"

	// Attack series (label: engine = sequential).
	MetricAttackDIPs        = "dynunlock_attack_dips_total"
	MetricAttackQueries     = "dynunlock_attack_oracle_queries_total"
	MetricAttackIterations  = "dynunlock_attack_iterations"
	MetricAttackDIPSolveSec = "dynunlock_attack_dip_solve_seconds"
	// Encoder series (label: engine): CNF growth emitted by circuit-copy
	// encoding — the initial two key copies plus each DIP-constrained
	// copy. Clause counts include native XOR rows.
	MetricEncodeVars    = "dynunlock_encode_vars_total"
	MetricEncodeClauses = "dynunlock_encode_clauses_total"

	// Oracle (tester-time) series.
	MetricOracleSessions = "dynunlock_oracle_sessions_total"
	MetricOracleCycles   = "dynunlock_oracle_scan_cycles_total"

	// Sweep series (label: status = ok | error on the items counter).
	MetricSweepInflight = "dynunlock_sweep_inflight"
	MetricSweepItems    = "dynunlock_sweep_items_total"

	// Insight (seed-space progress) series, published by internal/insight:
	// the certified GF(2) constraint rank, its analytic ceiling
	// rank([A;B]), the log2 of the surviving seed space, and the DIP-rate
	// ETA until the rank ceiling (absent until the first rank gain).
	MetricInsightRank       = "dynunlock_insight_rank"
	MetricInsightRankTarget = "dynunlock_insight_rank_target"
	MetricInsightBits       = "dynunlock_insight_bits_learned_total"
	MetricInsightSeedsLog2  = "dynunlock_insight_seeds_remaining_log2"
	MetricInsightETA        = "dynunlock_insight_eta_seconds"

	// Process series (updated by the HTTP server on scrape).
	MetricProcessRSS  = "dynunlock_process_resident_bytes"
	MetricGoroutines  = "dynunlock_process_goroutines"
	MetricProcessHeap = "dynunlock_process_heap_bytes"
	// Liveness signals for long-running services (dynunlockd): seconds
	// since the metrics server started, and the goroutine count under its
	// conventional short name (MetricGoroutines predates the daemon and
	// keeps its dynunlock_process_ prefix; both are refreshed on scrape).
	MetricProcessUptime  = "dynunlock_process_uptime_seconds"
	MetricGoroutinesBare = "dynunlock_goroutines"

	// Build self-description: a constant-1 gauge whose labels identify
	// the binary (go version, flight-bundle format version, default
	// encode/solve flag values), so scrapes and event streams carry the
	// provenance of the process that produced them.
	MetricBuildInfo = "dynunlock_build_info"
)

// Kind classifies a metric family.
type Kind uint8

// Metric family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String renders the kind in Prometheus TYPE vocabulary.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing uint64. All methods are nil-safe
// and lock-free; the nil counter (from a disabled registry or handle) is
// the no-op instrument.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on the nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that may go up and down, stored as atomic bits.
// All methods are nil-safe; Add uses a CAS loop.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value (0 on the nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution: observation counts per bucket
// (upper-bound inclusive, with an implicit +Inf bucket), a running sum,
// and a total count. Observe is lock-free; all methods are nil-safe.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds, +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:  bounds,
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the fixed buckets
// by linear interpolation within the bucket containing the target rank —
// the same estimate Prometheus's histogram_quantile computes. Returns 0
// with no observations; ranks landing in the +Inf overflow bucket return
// the last finite bound (the estimate cannot exceed what the buckets
// resolve). Nil-safe.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return quantileFromBuckets(h.bounds, counts, q)
}

// quantileFromBuckets interpolates a quantile over per-bucket (non-
// cumulative) counts.
func quantileFromBuckets(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			frac := (rank - cum) / float64(c)
			return lo + frac*(bounds[i]-lo)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and growing by factor (e.g. ExpBuckets(0.001, 2, 14) spans 1ms to
// ~8s). Suitable for solve-time histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// LinearBuckets returns n linearly spaced bucket bounds.
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 {
		panic("metrics: LinearBuckets needs n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start += width
	}
	return out
}

// child is one labeled instrument of a family.
type child struct {
	labels []string // sorted "k=v" rendering source: alternating key, value
	key    string   // canonical serialized label set
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family is all children sharing one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []float64 // KindHistogram only

	mu       sync.Mutex
	children map[string]*child
}

func (f *family) child(labels []string) *child {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{labels: labels, key: key}
	switch f.kind {
	case KindCounter:
		c.ctr = &Counter{}
	case KindGauge:
		c.gauge = &Gauge{}
	case KindHistogram:
		c.hist = newHistogram(f.bounds)
	}
	f.children[key] = c
	return c
}

// sortedChildren returns the children ordered by label key (deterministic
// exposition order).
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// Registry holds metric families by name. The zero value is not usable;
// call NewRegistry. A nil *Registry is the disabled registry: every
// instrument constructor returns the nil no-op instrument.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name string, kind Kind, bounds []float64) *family {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if f, ok = r.families[name]; !ok {
			f = &family{name: name, kind: kind, bounds: bounds, children: make(map[string]*child)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	if kind == KindHistogram && !equalBounds(f.bounds, bounds) {
		panic(fmt.Sprintf("metrics: %s registered with different buckets", name))
	}
	return f
}

// Counter returns the counter for name and the given label pairs
// ("key", "value", ...), creating it on first use. Nil-safe: a nil
// registry returns the nil counter.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, KindCounter, nil).child(normalizePairs(labelPairs)).ctr
}

// Gauge returns the gauge for name and label pairs, creating it on first
// use. Nil-safe.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, KindGauge, nil).child(normalizePairs(labelPairs)).gauge
}

// Histogram returns the histogram for name and label pairs, creating it
// with the given bucket bounds on first use. Re-registering a name with
// different bounds panics. Nil-safe.
func (r *Registry) Histogram(name string, bounds []float64, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.family(name, KindHistogram, append([]float64(nil), bounds...)).child(normalizePairs(labelPairs)).hist
}

// SetBuildInfo publishes the MetricBuildInfo gauge: constant 1 with the
// given label pairs describing the binary (conventionally goversion and
// the bundle format). Nil-safe.
func (r *Registry) SetBuildInfo(labelPairs ...string) {
	if r == nil {
		return
	}
	r.Gauge(MetricBuildInfo, labelPairs...).Set(1)
	r.SetHelp(MetricBuildInfo, "Build self-description; the labels identify the binary.")
}

// SetHelp attaches a Prometheus HELP string to a family (created lazily as
// a counter placeholder if the family does not exist yet is avoided: help
// on an unknown name is retained only once the family is registered, so
// call SetHelp after the first instrument). Nil-safe.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if ok {
		f.mu.Lock()
		f.help = help
		f.mu.Unlock()
	}
}

// Sum returns the sum of a family's values across its labeled children —
// counters sum their counts, gauges their values, histograms their
// observation counts — and whether the family exists. Optional label
// pairs restrict the sum to children carrying every pair; none means every
// child. A per-job progress sampler sums its own job's series so
// concurrent jobs in one registry do not bleed into each other's deltas.
// Nil-safe.
func (r *Registry) Sum(name string, labelPairs ...string) (float64, bool) {
	f := r.lookup(name)
	if f == nil {
		return 0, false
	}
	want := normalizePairs(labelPairs)
	var sum float64
	for _, c := range f.sortedChildren() {
		if !labelsContain(c.labels, want) {
			continue
		}
		switch f.kind {
		case KindCounter:
			sum += float64(c.ctr.Value())
		case KindGauge:
			sum += c.gauge.Value()
		case KindHistogram:
			sum += float64(c.hist.Count())
		}
	}
	return sum, true
}

// QuantileOf estimates the q-quantile of a histogram family, merging the
// per-bucket counts of its labeled children (identical bounds by
// construction). Optional label pairs restrict the merge to children
// carrying every pair; none means every child. ok is false when the
// family is absent or not a histogram. Nil-safe. The progress reporter
// uses it for the latency percentile fields.
func (r *Registry) QuantileOf(name string, q float64, labelPairs ...string) (float64, bool) {
	f := r.lookup(name)
	if f == nil || f.kind != KindHistogram {
		return 0, false
	}
	want := normalizePairs(labelPairs)
	counts := make([]uint64, len(f.bounds)+1)
	for _, c := range f.sortedChildren() {
		if !labelsContain(c.labels, want) {
			continue
		}
		for i := range c.hist.buckets {
			counts[i] += c.hist.buckets[i].Load()
		}
	}
	return quantileFromBuckets(f.bounds, counts, q), true
}

// lookup returns the named family, or nil when it is absent. Nil-safe.
func (r *Registry) lookup(name string) *family {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.families[name]
}

// Snapshot returns series as a flat map from "name{labels}" to a
// JSON-friendly value: float64 for counters and gauges, a
// {count, sum, buckets, p50, p95, p99} object for histograms (the
// quantiles are fixed-bucket interpolation estimates; the Prometheus
// exposition stays raw buckets). Optional label pairs restrict it to
// series carrying every pair exactly; none means every series. The
// expvar endpoint and tests consume the full map; a run's bundle
// metrics.json comes from its handle's scope (Handle.Snapshot) and the
// filtered SSE snapshots from Snapshot("job", id). Nil-safe.
func (r *Registry) Snapshot(labelPairs ...string) map[string]any {
	if r == nil {
		return nil
	}
	want := normalizePairs(labelPairs)
	out := make(map[string]any)
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	for _, f := range fams {
		for _, c := range f.sortedChildren() {
			if !labelsContain(c.labels, want) {
				continue
			}
			key := f.name
			if c.key != "" {
				key += "{" + c.key + "}"
			}
			switch f.kind {
			case KindCounter:
				out[key] = float64(c.ctr.Value())
			case KindGauge:
				out[key] = c.gauge.Value()
			case KindHistogram:
				buckets := make(map[string]uint64, len(f.bounds)+1)
				cum := uint64(0)
				for i, b := range f.bounds {
					cum += c.hist.buckets[i].Load()
					buckets[formatFloat(b)] = cum
				}
				cum += c.hist.buckets[len(f.bounds)].Load()
				buckets["+Inf"] = cum
				out[key] = map[string]any{
					"count":   c.hist.Count(),
					"sum":     c.hist.Sum(),
					"buckets": buckets,
					"p50":     c.hist.Quantile(0.50),
					"p95":     c.hist.Quantile(0.95),
					"p99":     c.hist.Quantile(0.99),
				}
			}
		}
	}
	return out
}

// normalizePairs validates alternating key/value label pairs and returns
// them sorted by key.
func normalizePairs(pairs []string) []string {
	if len(pairs) == 0 {
		return nil
	}
	if len(pairs)%2 != 0 {
		panic("metrics: odd number of label pair elements")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.SliceStable(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	out := make([]string, 0, len(pairs))
	for _, p := range kvs {
		out = append(out, p.k, p.v)
	}
	return out
}

// labelKey renders sorted pairs as the canonical `k="v",k2="v2"` string
// used both as the child map key and in the Prometheus exposition.
func labelKey(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	var sb strings.Builder
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(pairs[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(pairs[i+1]))
		sb.WriteByte('"')
	}
	return sb.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// mergePairs concatenates base labels with call-site labels (both
// alternating key/value); call-site values win on duplicate keys.
func mergePairs(base, extra []string) []string {
	if len(base) == 0 {
		return extra
	}
	if len(extra) == 0 {
		return base
	}
	out := make([]string, 0, len(base)+len(extra))
	for i := 0; i+1 < len(base); i += 2 {
		k := base[i]
		dup := false
		for j := 0; j+1 < len(extra); j += 2 {
			if extra[j] == k {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, k, base[i+1])
		}
	}
	return append(out, extra...)
}

// labelsContain reports whether the sorted alternating label list
// carries every (key, value) pair of want exactly.
func labelsContain(labels, want []string) bool {
	for i := 0; i+1 < len(want); i += 2 {
		found := false
		for j := 0; j+1 < len(labels); j += 2 {
			if labels[j] == want[i] {
				found = labels[j+1] == want[i+1]
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
