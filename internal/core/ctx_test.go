package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"dynunlock/internal/scan"
	"dynunlock/internal/trace"
)

// Acceptance criterion of the ctx refactor: a background context with no
// sink — and equally a never-expiring deadline or an attached sink — must
// produce the exact candidate set and DIP sequence of the plain Attack.
func TestAttackCtxDeterminism(t *testing.T) {
	type variant struct {
		name string
		call func() (*Result, error)
	}
	variants := []variant{
		{"plain", func() (*Result, error) {
			_, chip := lockedChip(t, 24, 16, scan.PerCycle, 7, 8)
			return Attack(chip, Options{EnumerateLimit: 64})
		}},
		{"background", func() (*Result, error) {
			_, chip := lockedChip(t, 24, 16, scan.PerCycle, 7, 8)
			return AttackCtx(context.Background(), chip, Options{EnumerateLimit: 64})
		}},
		{"far-deadline", func() (*Result, error) {
			_, chip := lockedChip(t, 24, 16, scan.PerCycle, 7, 8)
			ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
			defer cancel()
			return AttackCtx(ctx, chip, Options{EnumerateLimit: 64})
		}},
		{"with-sink", func() (*Result, error) {
			_, chip := lockedChip(t, 24, 16, scan.PerCycle, 7, 8)
			ctx := trace.With(context.Background(), trace.NewCollector())
			return AttackCtx(ctx, chip, Options{EnumerateLimit: 64})
		}},
	}
	ref, err := variants[0].call()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.SeedCandidates) == 0 || !ref.Verified {
		t.Fatalf("reference run: candidates=%d verified=%v", len(ref.SeedCandidates), ref.Verified)
	}
	for _, v := range variants[1:] {
		got, err := v.call()
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if got.Iterations != ref.Iterations || got.Queries != ref.Queries {
			t.Fatalf("%s: iterations %d/%d queries %d/%d",
				v.name, got.Iterations, ref.Iterations, got.Queries, ref.Queries)
		}
		if len(got.SeedCandidates) != len(ref.SeedCandidates) {
			t.Fatalf("%s: %d candidates, want %d", v.name, len(got.SeedCandidates), len(ref.SeedCandidates))
		}
		for i := range ref.SeedCandidates {
			if !got.SeedCandidates[i].Equal(ref.SeedCandidates[i]) {
				t.Fatalf("%s: candidate %d differs", v.name, i)
			}
		}
	}
	// The deadline variant must not disturb solver work either: it takes the
	// watcher path, yet the interrupt never fires.
	far, err := variants[2].call()
	if err != nil {
		t.Fatal(err)
	}
	if far.SolverStats != ref.SolverStats {
		t.Fatalf("far-deadline stats diverge:\n%+v\n%+v", far.SolverStats, ref.SolverStats)
	}
}

func TestAttackCtxDeadlinePartial(t *testing.T) {
	_, chip := lockedChip(t, 48, 32, scan.PerCycle, 9, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 1)
	defer cancel()
	time.Sleep(time.Millisecond) // the deadline is already behind us
	res, err := AttackCtx(ctx, chip, Options{EnumerateLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.StopReason != StopDeadline {
		t.Fatalf("stopped=%v reason=%q", res.Stopped, res.StopReason)
	}
	if res.Rank == 0 {
		t.Fatal("partial result must still carry the model analysis")
	}
}

// The stage-span sequence must appear on the sink, and the final "result"
// event must report the run, including how the DIP loop closed and the
// oracle session accounting from the chip hook. A unique close skips the
// extract and enumerate stages; a miter close (direct mode with more key
// bits than rank[A;B], so several seeds remain) still runs both.
func TestAttackCtxTraceResult(t *testing.T) {
	for _, tc := range []struct {
		name          string
		ffs, keyBits  int
		opts          Options
		closed        Close
		stages        []string
		minCandidates int
	}{
		{"unique", 24, 16, Options{EnumerateLimit: 64}, CloseUnique,
			[]string{"unroll", "encode", "unique", "dip_loop", "refine", "verify"}, 1},
		{"miter", 6, 12, Options{Mode: ModeDirect, EnumerateLimit: 1 << 12}, CloseMiter,
			[]string{"unroll", "encode", "unique", "dip_loop", "extract", "enumerate", "verify"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, chip := lockedChip(t, tc.ffs, tc.keyBits, scan.PerCycle, 7, 8)
			c := trace.NewCollector()
			ctx := trace.With(context.Background(), c)
			res, err := AttackCtx(ctx, chip, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Closed != tc.closed || !res.Converged || len(res.SeedCandidates) < tc.minCandidates {
				t.Fatalf("closed=%q converged=%v candidates=%d, want %q with at least %d",
					res.Closed, res.Converged, len(res.SeedCandidates), tc.closed, tc.minCandidates)
			}
			// Stage names in completion order, runs of one name collapsed
			// (one "unique" span per DIP).
			var stages []string
			for _, sp := range c.Spans() {
				if n := len(stages); n == 0 || stages[n-1] != sp.Name {
					stages = append(stages, sp.Name)
				}
			}
			if !slices.Equal(stages, tc.stages) {
				t.Fatalf("stage spans %v, want %v", stages, tc.stages)
			}
			var result *trace.Event
			for _, ev := range c.Events() {
				if ev.Type == "result" {
					ev := ev
					result = &ev
				}
			}
			if result == nil {
				t.Fatal("no result event emitted")
			}
			f := result.Fields
			if f["stopped"] != false || f["iterations"] != res.Iterations || f["closed"] != string(tc.closed) {
				t.Fatalf("result fields = %v", f)
			}
			sessions, ok := f["oracle_sessions"].(uint64)
			if !ok || sessions == 0 {
				t.Fatalf("oracle_sessions = %v", f["oracle_sessions"])
			}
			cycles, ok := f["oracle_cycles"].(uint64)
			if !ok || cycles == 0 {
				t.Fatalf("oracle_cycles = %v", f["oracle_cycles"])
			}
		})
	}
}

// The session hook installed by AttackCtx must chain and restore any
// caller-installed hook.
func TestAttackCtxSessionHookChains(t *testing.T) {
	_, chip := lockedChip(t, 24, 16, scan.PerCycle, 7, 8)
	var outer uint64
	mine := func(cycles uint64) { outer += cycles }
	chip.SessionHook = mine
	if _, err := AttackCtx(context.Background(), chip, Options{EnumerateLimit: 8}); err != nil {
		t.Fatal(err)
	}
	if outer == 0 {
		t.Fatal("caller hook not chained")
	}
	if chip.SessionHook == nil {
		t.Fatal("caller hook not restored")
	}
	before := outer
	chip.Reset()
	chip.Session(make([]bool, 16), make([]bool, chip.Design().Chain.Length), make([]bool, chip.Design().View.NumPI))
	if outer <= before {
		t.Fatal("restored hook inactive")
	}
}

// An enumerate limit outside [0, MaxEnumerateLimit] is refused with an
// error naming the bound, before any model is built or session issued, at
// one capture and at two: a negative limit once read as "no limit" over
// the whole mask coset (and cut the multi-capture candidate list at -1),
// and MaxInt wrapped the coset bound negative. The bound itself is
// accepted.
func TestAttackCtxRejectsEnumerateLimit(t *testing.T) {
	for _, captures := range []int{1, 2} {
		for _, limit := range []int{-1, MaxEnumerateLimit + 1, math.MaxInt} {
			_, chip := lockedChip(t, 8, 8, scan.PerCycle, 7, 8)
			sessions := 0
			chip.SessionHook = func(uint64) { sessions++ }
			c := trace.NewCollector()
			ctx := trace.With(context.Background(), c)
			opts := Options{EnumerateLimit: limit}
			var res *Result
			var err error
			if captures == 1 {
				res, err = AttackCtx(ctx, chip, opts)
			} else {
				res, err = AttackMultiCtx(ctx, chip, captures, opts)
			}
			if err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxEnumerateLimit)) {
				t.Fatalf("captures %d, limit %d: err = %v, want one naming the bound %d", captures, limit, err, MaxEnumerateLimit)
			}
			if res != nil || sessions != 0 || len(c.Spans()) != 0 {
				t.Fatalf("captures %d, limit %d: result %v after %d sessions and %d spans, want none",
					captures, limit, res, sessions, len(c.Spans()))
			}
		}
	}
	_, chip := lockedChip(t, 8, 8, scan.PerCycle, 7, 8)
	res, err := Attack(chip, Options{EnumerateLimit: MaxEnumerateLimit})
	if err != nil || !res.Exact || !ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
		t.Fatalf("limit at the bound: err=%v", err)
	}
}
