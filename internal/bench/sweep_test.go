package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"dynunlock/internal/metrics"
)

func TestSweepOrderAndResults(t *testing.T) {
	items := make([]int, 37)
	for i := range items {
		items[i] = i * 3
	}
	for _, workers := range []int{0, 1, 2, 8, 64} {
		got, err := Sweep(workers, items, func(i, item int) (int, error) {
			return item + i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range items {
			if got[i] != i*4 {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], i*4)
			}
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	got, err := Sweep(4, nil, func(i, item int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestSweepFirstErrorByIndex(t *testing.T) {
	items := make([]int, 20)
	wantErr := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Sweep(workers, items, func(i, item int) (int, error) {
			if i == 3 || i == 7 {
				return 0, fmt.Errorf("item %d: %w", i, wantErr)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		// With one worker the error is necessarily item 3's; with more
		// workers it must still be the lowest-index error that ran.
		if workers == 1 && err.Error() != "item 3: boom" {
			t.Fatalf("sequential error = %v", err)
		}
	}
}

// TestSweepStopsAfterError waits on the stop instead of racing it: every
// item after 0 blocks until the caller's registry counts item 0's error,
// which the sweep records before it counts it. By then the hand-out has
// stopped, so no worker takes a further item: at most one item per worker
// runs.
func TestSweepStopsAfterError(t *testing.T) {
	const workers = 2
	reg := metrics.NewRegistry()
	errItems := reg.Counter(metrics.MetricSweepItems, "status", "error")
	var ran atomic.Int64
	items := make([]int, 1000)
	_, err := SweepCtx(metrics.With(context.Background(), reg), workers, items, func(_ context.Context, i, item int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("early")
		}
		for errItems.Value() == 0 {
			runtime.Gosched()
		}
		return 0, nil
	})
	if err == nil || err.Error() != "early" {
		t.Fatalf("err = %v, want item 0's error", err)
	}
	if n := ran.Load(); n > workers {
		t.Fatalf("sweep did not stop after the error: ran %d items, want at most %d", n, workers)
	}
}

func TestSweepCtxCancelBetweenItems(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 10)
	var ran atomic.Int64
	got, err := SweepCtx(ctx, 1, items, func(ctx context.Context, i, item int) (int, error) {
		ran.Add(1)
		if i == 2 {
			cancel() // next hand-out sees the cancelled context
		}
		return i + 1, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// Sequential: exactly items 0..2 ran, and the error names item 3, the
	// first item that never started.
	if n := ran.Load(); n != 3 {
		t.Fatalf("ran %d items", n)
	}
	if err.Error() != "item 3: context canceled" {
		t.Fatalf("error = %v", err)
	}
	if got[2] != 3 || got[3] != 0 {
		t.Fatalf("results = %v", got)
	}
}

func TestSweepCtxCancelParallel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 100)
	var ran atomic.Int64
	_, err := SweepCtx(ctx, 4, items, func(ctx context.Context, i, item int) (int, error) {
		if ran.Add(1) == 5 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n >= int64(len(items)) {
		t.Fatalf("sweep did not stop early: ran %d items", n)
	}
}

// A ctx cancellation detected at a low index must beat an fn error at a
// higher index, like any other error under the lowest-index rule.
func TestSweepCtxErrorIndexRule(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SweepCtx(ctx, 1, make([]int, 4), func(ctx context.Context, i, item int) (int, error) {
		return 0, errors.New("fn must not run under a pre-cancelled context")
	})
	if !errors.Is(err, context.Canceled) || err.Error() != "item 0: context canceled" {
		t.Fatalf("err = %v", err)
	}
}

func TestSweepCtxBackgroundMatchesSweep(t *testing.T) {
	items := []int{5, 6, 7}
	a, errA := Sweep(1, items, func(i, item int) (int, error) { return item * 2, nil })
	b, errB := SweepCtx(context.Background(), 1, items, func(_ context.Context, i, item int) (int, error) { return item * 2, nil })
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSweepActuallyConcurrent(t *testing.T) {
	// Two workers must be able to hold two items in flight at once.
	gate := make(chan struct{})
	items := []int{0, 1}
	_, err := Sweep(2, items, func(i, item int) (int, error) {
		if i == 0 {
			<-gate // blocks until item 1 releases it
		} else {
			close(gate)
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSweepCtxGivesEachItemItsOwnRegistry pins the one scope rule: with a
// registry on the sweep's context, every item runs under a fresh registry
// of its own, at any worker count, while the sweep's own series stay on
// the caller's registry. Without one, items get none.
func TestSweepCtxGivesEachItemItsOwnRegistry(t *testing.T) {
	for _, workers := range []int{1, 3} {
		reg := metrics.NewRegistry()
		items := []int{0, 1, 2, 3}
		regs, err := SweepCtx(metrics.With(context.Background(), reg), workers, items,
			func(ctx context.Context, _ int, _ int) (*metrics.Registry, error) { return metrics.From(ctx), nil })
		if err != nil {
			t.Fatal(err)
		}
		seen := map[*metrics.Registry]bool{reg: true}
		for i, r := range regs {
			if r == nil || seen[r] {
				t.Fatalf("workers=%d: item %d ran under registry %p, want a fresh one", workers, i, r)
			}
			seen[r] = true
		}
		if n, _ := reg.Sum(metrics.MetricSweepItems); n != float64(len(items)) {
			t.Fatalf("workers=%d: caller's registry counts %v items, want %d", workers, n, len(items))
		}
	}
	regs, _ := SweepCtx(context.Background(), 2, []int{0, 1},
		func(ctx context.Context, _ int, _ int) (*metrics.Registry, error) { return metrics.From(ctx), nil })
	if regs[0] != nil || regs[1] != nil {
		t.Fatal("items of a sweep without a registry got one")
	}
}
