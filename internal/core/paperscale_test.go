package core

import (
	"context"
	"os"
	"testing"
	"time"

	"dynunlock/internal/scan"
	"dynunlock/internal/trace"
)

// Paper-scale attack runs (full flop counts, 128-bit keys). Opt in with
//
//	DYNUNLOCK_PAPERSCALE=1 go test ./internal/core -run TestPaperScale -v -timeout 24h
//
// Measured results are recorded in EXPERIMENTS.md. The largest circuits
// (s38584/s38417/s35932, 1233–1728 flops) take tens of minutes to hours
// per trial on the built-in solver. Per-stage timings come from the span
// records of a trace collector, logged with t.Logf (visible under -v) —
// no raw prints from library or test code.
func TestPaperScale(t *testing.T) {
	if os.Getenv("DYNUNLOCK_PAPERSCALE") == "" {
		t.Skip("set DYNUNLOCK_PAPERSCALE=1 for paper-scale runs")
	}
	cases := []struct {
		name   string
		ffs, k int
	}{
		{"s5378", 160, 128},
		{"s13207", 202, 128},
		{"s15850", 442, 128},
		{"b20", 429, 128},
		{"b21", 429, 128},
		{"b22", 611, 128},
		{"b17", 864, 128},
		{"s38584", 1233, 128},
		{"s38417", 1564, 128},
		{"s35932", 1728, 128},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			_, chip := lockedChip(t, tc.ffs, tc.k, scan.PerCycle, 42, 43)
			collector := trace.NewCollector()
			ctx := trace.With(context.Background(), collector)
			res, err := AttackCtx(ctx, chip, Options{EnumerateLimit: 256})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("RESULT %s ffs=%d k=%d: %v iters=%d cands=%d exact=%v rank=%d verified=%v conflicts=%d",
				tc.name, tc.ffs, tc.k, time.Since(start).Round(time.Millisecond),
				res.Iterations, len(res.SeedCandidates), res.Exact, res.Rank,
				res.Verified, res.SolverStats.Conflicts)
			for _, sp := range collector.Spans() {
				t.Logf("STAGE %s %s: %v", tc.name, sp.Name, sp.Duration.Round(time.Millisecond))
			}
			if !ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
				t.Error("secret not recovered")
			}
		})
	}
}
