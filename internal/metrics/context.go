package metrics

import "context"

type ctxKey struct{}

// With returns a context carrying the registry, which is the metrics scope
// of the run below: every instrument that run creates lives in it, and the
// run's sample reads all of it. Attack layers retrieve it with From; a nil
// registry returns ctx unchanged. Runs that execute concurrently each get
// their own registry (bench.SweepCtx hands one to every item), so no read
// ever separates runs by label.
func With(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// From returns the registry carried by ctx, or nil when telemetry is
// disabled. The Registry's instrument constructors are nil-safe, so
// callers never branch on the result — but hot paths may check for nil
// once to skip timing work.
func From(ctx context.Context) *Registry {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxKey{}).(*Registry)
	return r
}
