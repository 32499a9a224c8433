package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dynunlock/internal/metrics"
)

// Sweep runs fn over every item on a fixed-size worker pool and returns the
// results in item order. Table conditions (benchmark × keyBits × policy)
// are independent — every condition derives its own RNG seeds — so the
// sweep scales with cores while staying deterministic per condition: the
// only thing concurrency changes is which condition runs when.
//
// workers <= 0 selects runtime.GOMAXPROCS(0); workers == 1 degenerates to a
// plain sequential loop over items (no goroutines), which is the reference
// behavior parallel runs are checked against.
//
// On error the sweep stops handing out new items, waits for in-flight
// items, and returns the error with the lowest item index (deterministic
// regardless of scheduling). Results for items that never ran are zero
// values. Sweep is SweepCtx under context.Background().
func Sweep[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	return SweepCtx(context.Background(), workers, items,
		func(_ context.Context, i int, item T) (R, error) { return fn(i, item) })
}

// SweepCtx is Sweep with cancellation. The context is checked before each
// item is handed out: a cancelled context counts as an error at the index
// of the first item that did not run, wrapped so errors.Is sees the context
// error, and it participates in the lowest-index-error rule like any fn
// error. In-flight items are waited for, never abandoned; fn receives ctx
// so long-running items (attacks) can observe the same cancellation.
//
// With a metrics registry on ctx, the sweep's own dynunlock_sweep_* series
// go to it and each item runs under a fresh registry of its own: a
// registry is one run's metrics scope, and concurrent runs never share
// one.
func SweepCtx[T, R any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Live sweep accounting; all instruments are nil (no-op) without a
	// registry on ctx.
	mr := metrics.From(ctx)
	inflight := mr.Gauge(metrics.MetricSweepInflight)
	okItems := mr.Counter(metrics.MetricSweepItems, "status", "ok")
	errItems := mr.Counter(metrics.MetricSweepItems, "status", "error")
	var (
		failed   atomic.Bool
		mu       sync.Mutex
		errIdx   = len(items)
		firstErr error
	)
	// record keeps the lowest-index error and stops the hand-out. run
	// calls it before it counts the error item, so whoever sees that count
	// also sees the sweep stopped.
	record := func(i int, err error) {
		failed.Store(true)
		mu.Lock()
		if i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
	}
	run := func(ctx context.Context, i int, it T) (R, error) {
		if mr != nil {
			ctx = metrics.With(ctx, metrics.NewRegistry())
		}
		inflight.Add(1)
		r, err := fn(ctx, i, it)
		inflight.Add(-1)
		if err != nil {
			record(i, err)
			errItems.Inc()
		} else {
			okItems.Inc()
		}
		return r, err
	}
	if workers == 1 {
		for i, it := range items {
			if err := ctx.Err(); err != nil {
				return out, fmt.Errorf("item %d: %w", i, err)
			}
			r, err := run(ctx, i, it)
			if err != nil {
				return out, err
			}
			out[i] = r
		}
		return out, nil
	}
	if workers > len(items) {
		workers = len(items)
	}

	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					record(i, fmt.Errorf("item %d: %w", i, err))
					return
				}
				r, err := run(ctx, i, items[i])
				if err != nil {
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}
