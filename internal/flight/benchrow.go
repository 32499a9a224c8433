package flight

import (
	"fmt"
	"path/filepath"
)

// Summary is a trial list reduced to the paper's Table II columns.
// Averages follow the paper's convention (mean over trials); iteration,
// query, conflict and propagation totals are the machine-independent work
// measures.
type Summary struct {
	Trials            int
	AvgCandidates     float64
	AvgIterations     float64
	AvgQueries        float64
	AvgSeconds        float64
	TotalIterations   int
	TotalQueries      int
	TotalConflicts    uint64
	TotalPropagations uint64
	// Broken is true when there is a trial and every trial recovered the
	// secret seed.
	Broken bool
}

// Summarize reduces a trial list to its Summary. With no trials the run
// is not broken and every average is 0.
func Summarize(trials []TrialRecord) Summary {
	s := Summary{Trials: len(trials), Broken: len(trials) > 0}
	candidates := 0
	for _, t := range trials {
		candidates += len(t.SeedCandidates)
		s.TotalIterations += t.Iterations
		s.TotalQueries += t.Queries
		s.AvgSeconds += t.Seconds
		s.TotalConflicts += t.Solver.Conflicts
		s.TotalPropagations += t.Solver.Propagations
		s.Broken = s.Broken && t.Success
	}
	if n := float64(len(trials)); n > 0 {
		s.AvgCandidates = float64(candidates) / n
		s.AvgIterations = float64(s.TotalIterations) / n
		s.AvgQueries = float64(s.TotalQueries) / n
		s.AvgSeconds /= n
	}
	return s
}

// BenchRow is one bundle's outcome row: the configuration and the
// Summary of result.json's trials. `runs compare` and the report's
// cross-run table read it.
type BenchRow struct {
	RecordedAt string
	Bundle     string
	Benchmark  string
	Scale      int
	KeyBits    int
	Policy     string
	Mode       string
	Summary
	GitCommit string
}

// ConfigString renders the row's configuration for reports:
// "scale=16 k=8 per-cycle linear".
func (r BenchRow) ConfigString() string {
	return fmt.Sprintf("scale=%d k=%d %s %s", r.Scale, r.KeyBits, r.Policy, r.Mode)
}

// OutcomeDiff lists the deterministic columns on which o differs from r —
// benchmark, configuration (ConfigString), trials, average iterations,
// queries and candidates, broken — one "name: r -> o" line each; it is
// empty when the outcomes match. Timing and solver-effort columns vary
// across hosts and are not compared.
func (r BenchRow) OutcomeDiff(o BenchRow) []string {
	var out []string
	num := func(name string, a, b float64) {
		if a != b {
			out = append(out, fmt.Sprintf("%s: %g -> %g (%+g)", name, a, b, b-a))
		}
	}
	if r.Benchmark != o.Benchmark {
		out = append(out, fmt.Sprintf("benchmark: %s -> %s", r.Benchmark, o.Benchmark))
	}
	if a, b := r.ConfigString(), o.ConfigString(); a != b {
		out = append(out, fmt.Sprintf("config: %s -> %s", a, b))
	}
	num("trials", float64(r.Trials), float64(o.Trials))
	num("avg iterations", r.AvgIterations, o.AvgIterations)
	num("avg queries", r.AvgQueries, o.AvgQueries)
	num("avg candidates", r.AvgCandidates, o.AvgCandidates)
	if r.Broken != o.Broken {
		out = append(out, fmt.Sprintf("broken: %v -> %v", r.Broken, o.Broken))
	}
	return out
}

// BenchRowFrom reduces a bundle to its outcome row.
func BenchRowFrom(b *Bundle) BenchRow {
	m := &b.Manifest
	return BenchRow{
		RecordedAt: m.CreatedAt,
		Bundle:     filepath.Base(b.Dir),
		Benchmark:  m.Benchmark,
		Scale:      m.Scale,
		KeyBits:    m.Lock.KeyBits,
		Policy:     m.Lock.Policy,
		Mode:       m.Mode,
		Summary:    Summarize(b.Result.Trials),
		GitCommit:  m.Fingerprint.GitCommit,
	}
}
