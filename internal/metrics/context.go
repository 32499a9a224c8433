package metrics

import "context"

type ctxKey struct{}

// Handle is a registry plus a set of base labels, as carried by a
// context. Instrument constructors merge the base labels into every
// series they create, so a sweep can tag all metrics published below it
// (e.g. with the benchmark name) without threading label arguments
// through the attack APIs. The nil handle is the disabled-telemetry
// no-op: every constructor returns the nil instrument.
type Handle struct {
	reg  *Registry
	base []string // alternating key, value
}

// With returns a context carrying the registry. Attack layers below
// retrieve it with From; a nil registry returns ctx unchanged.
func With(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &Handle{reg: r})
}

// WithLabels returns a context whose handle carries additional base
// labels (alternating key/value pairs) merged into every instrument
// created below. Without a registry on ctx it is a no-op, so label
// tagging costs nothing on the disabled path. It is the one way to scope
// a run's series: the daemon gives each job
// WithLabels(With(ctx, reg), "job", id, "benchmark", name), and the CLIs
// label each experiment by its benchmark.
func WithLabels(ctx context.Context, labelPairs ...string) context.Context {
	h := From(ctx)
	if h == nil || len(labelPairs) == 0 {
		return ctx
	}
	if len(labelPairs)%2 != 0 {
		panic("metrics: odd number of label pair elements")
	}
	return context.WithValue(ctx, ctxKey{}, &Handle{
		reg:  h.reg,
		base: mergePairs(h.base, labelPairs),
	})
}

// From returns the handle carried by ctx, or nil when telemetry is
// disabled. All Handle methods are nil-safe, so callers never branch on
// the result — but hot paths may check for nil once to skip timing work.
func From(ctx context.Context) *Handle {
	if ctx == nil {
		return nil
	}
	if h, ok := ctx.Value(ctxKey{}).(*Handle); ok {
		return h
	}
	return nil
}

// Snapshot returns the series in the handle's own label scope: the
// registry's Snapshot restricted to the handle's base labels, so a run
// labeled WithLabels("job", id) reads back only its own series while
// other runs share the registry. A handle without base labels returns
// every series; the nil handle returns nil.
func (h *Handle) Snapshot() map[string]any {
	if h == nil {
		return nil
	}
	return h.reg.Snapshot(h.base...)
}

// Counter returns a counter with the handle's base labels merged in.
func (h *Handle) Counter(name string, labelPairs ...string) *Counter {
	if h == nil {
		return nil
	}
	return h.reg.Counter(name, mergePairs(h.base, labelPairs)...)
}

// Gauge returns a gauge with the handle's base labels merged in.
func (h *Handle) Gauge(name string, labelPairs ...string) *Gauge {
	if h == nil {
		return nil
	}
	return h.reg.Gauge(name, mergePairs(h.base, labelPairs)...)
}

// Histogram returns a histogram with the handle's base labels merged in.
func (h *Handle) Histogram(name string, bounds []float64, labelPairs ...string) *Histogram {
	if h == nil {
		return nil
	}
	return h.reg.Histogram(name, bounds, mergePairs(h.base, labelPairs)...)
}
