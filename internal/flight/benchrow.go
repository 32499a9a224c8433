package flight

import (
	"fmt"
	"path/filepath"
)

// BenchRow is one bundle's outcome row: the configuration and the
// per-trial outcomes of result.json reduced to the paper's Table II
// columns. Averages follow the paper's convention (mean over trials);
// conflict and propagation totals are the machine-independent work
// measures. `runs compare` and the report's cross-run table read it.
type BenchRow struct {
	RecordedAt        string
	Bundle            string
	Benchmark         string
	Scale             int
	KeyBits           int
	Policy            string
	Mode              string
	Analytic          bool
	Trials            int
	AvgCandidates     float64
	AvgIterations     float64
	AvgQueries        float64
	AvgSeconds        float64
	TotalConflicts    uint64
	TotalPropagations uint64
	Broken            bool
	GitCommit         string
}

// ConfigString renders the row's configuration for reports:
// "scale=16 k=8 per-cycle linear", plus " analytic" when armed. Analytic
// is part of it because the short-circuit changes the iteration count.
func (r BenchRow) ConfigString() string {
	s := fmt.Sprintf("scale=%d k=%d %s %s", r.Scale, r.KeyBits, r.Policy, r.Mode)
	if r.Analytic {
		s += " analytic"
	}
	return s
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
	row := BenchRow{
		RecordedAt: m.CreatedAt,
		Bundle:     filepath.Base(b.Dir),
		Benchmark:  m.Benchmark,
		Scale:      m.Scale,
		KeyBits:    m.Lock.KeyBits,
		Policy:     m.Lock.Policy,
		Mode:       m.Mode,
		Analytic:   m.Analytic,
		Trials:     len(b.Result.Trials),
		GitCommit:  m.Fingerprint.GitCommit,
	}
	if len(b.Result.Trials) == 0 {
		return row
	}
	row.Broken = true
	for _, t := range b.Result.Trials {
		row.AvgCandidates += float64(len(t.SeedCandidates))
		row.AvgIterations += float64(t.Iterations)
		row.AvgQueries += float64(t.Queries)
		row.AvgSeconds += t.Seconds
		row.TotalConflicts += t.Solver.Conflicts
		row.TotalPropagations += t.Solver.Propagations
		if !t.Success {
			row.Broken = false
		}
	}
	n := float64(len(b.Result.Trials))
	row.AvgCandidates /= n
	row.AvgIterations /= n
	row.AvgQueries /= n
	row.AvgSeconds /= n
	return row
}
