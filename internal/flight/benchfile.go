package flight

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
)

// BenchRow is one normalized benchmark ledger entry: the cross-run
// comparison record cmd/runs appends to BENCH_attack.json. Averages follow
// the paper's Table II convention (mean over trials); conflict and
// propagation totals are the machine-independent work measures.
type BenchRow struct {
	RecordedAt        string  `json:"recordedAt"`
	Bundle            string  `json:"bundle"`
	Tool              string  `json:"tool,omitempty"`
	Benchmark         string  `json:"benchmark"`
	Scale             int     `json:"scale"`
	KeyBits           int     `json:"keyBits"`
	Policy            string  `json:"policy"`
	Mode              string  `json:"mode"`
	Analytic          bool    `json:"analytic,omitempty"`
	Trials            int     `json:"trials"`
	AvgCandidates     float64 `json:"avgCandidates"`
	AvgIterations     float64 `json:"avgIterations"`
	AvgQueries        float64 `json:"avgQueries"`
	AvgSeconds        float64 `json:"avgSeconds"`
	TotalConflicts    uint64  `json:"totalConflicts"`
	TotalPropagations uint64  `json:"totalPropagations"`
	// TotalEncodeClauses sums the per-trial encode clause counters: the
	// measure the AIG encoding is meant to shrink.
	TotalEncodeClauses uint64 `json:"totalEncodeClauses,omitempty"`
	Broken             bool   `json:"broken"`
	GoVersion          string `json:"goVersion"`
	Host               string `json:"host,omitempty"`
	GitCommit          string `json:"gitCommit,omitempty"`
}

// ConfigString renders the row's configuration for reports:
// "scale=16 k=8 per-cycle linear", plus " analytic" when armed.
func (r BenchRow) ConfigString() string {
	s := fmt.Sprintf("scale=%d k=%d %s %s", r.Scale, r.KeyBits, r.Policy, r.Mode)
	if r.Analytic {
		s += " analytic"
	}
	return s
}

// SameConfig reports whether o was recorded under r's configuration:
// benchmark, scale, key width, policy, mode and analytic. Analytic is part
// of the key because the short-circuit changes the iteration count.
func (r BenchRow) SameConfig(o BenchRow) bool {
	return r.Benchmark == o.Benchmark && r.Scale == o.Scale && r.KeyBits == o.KeyBits &&
		r.Policy == o.Policy && r.Mode == o.Mode && r.Analytic == o.Analytic
}

// OutcomeDiff lists the deterministic columns on which o differs from r —
// benchmark, trials, average iterations, queries and candidates, broken —
// one "name: r -> o" line each; it is empty when the outcomes match.
// Timing and solver-effort columns vary across hosts and are not compared.
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
	num("trials", float64(r.Trials), float64(o.Trials))
	num("avg iterations", r.AvgIterations, o.AvgIterations)
	num("avg queries", r.AvgQueries, o.AvgQueries)
	num("avg candidates", r.AvgCandidates, o.AvgCandidates)
	if r.Broken != o.Broken {
		out = append(out, fmt.Sprintf("broken: %v -> %v", r.Broken, o.Broken))
	}
	return out
}

// BenchFile is the BENCH_attack.json document: an append-only ledger of
// normalized rows.
type BenchFile struct {
	FormatVersion int        `json:"formatVersion"`
	Rows          []BenchRow `json:"rows"`
}

// BenchRowFrom normalizes a bundle into a ledger row.
func BenchRowFrom(b *Bundle) BenchRow {
	m := &b.Manifest
	row := BenchRow{
		RecordedAt: m.CreatedAt,
		Bundle:     filepath.Base(b.Dir),
		Tool:       m.Tool,
		Benchmark:  m.Benchmark,
		Scale:      m.Scale,
		KeyBits:    m.Lock.KeyBits,
		Policy:     m.Lock.Policy,
		Mode:       m.Mode,
		Analytic:   m.Analytic,
		Trials:     len(b.Result.Trials),
		GoVersion:  m.Fingerprint.GoVersion,
		Host:       m.Fingerprint.Host,
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
		row.TotalEncodeClauses += t.EncodeClauses
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

// ReadBenchFile loads a ledger; a missing file yields an empty ledger so
// the first append creates it.
func ReadBenchFile(path string) (*BenchFile, error) {
	var f BenchFile
	err := readJSONFile(path, &f)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return &BenchFile{FormatVersion: BenchFormatVersion}, nil
		}
		return nil, err
	}
	if f.FormatVersion != BenchFormatVersion {
		return nil, &BundleError{Path: path, Err: fmt.Errorf("%w: formatVersion %d, want %d", ErrCorrupt, f.FormatVersion, BenchFormatVersion)}
	}
	return &f, nil
}

// Write persists the ledger (indented, trailing newline — diff-friendly for
// a committed file).
func (f *BenchFile) Write(path string) error {
	f.FormatVersion = BenchFormatVersion
	return writeJSONFile(path, f)
}

// FindRow returns the latest ledger row recorded under row's
// configuration (SameConfig), for baseline comparisons; ok is false when
// no row matches.
func (f *BenchFile) FindRow(row BenchRow) (BenchRow, bool) {
	for i := len(f.Rows) - 1; i >= 0; i-- {
		if f.Rows[i].SameConfig(row) {
			return f.Rows[i], true
		}
	}
	return BenchRow{}, false
}
