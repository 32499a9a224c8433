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

// FindRow returns the ledger row matching a bundle's configuration
// (benchmark, scale, key width, policy, mode, analytic), for
// baseline comparisons; ok is false when no row matches. Analytic is part
// of the key because the short-circuit changes the iteration count.
func (f *BenchFile) FindRow(row BenchRow) (BenchRow, bool) {
	for i := len(f.Rows) - 1; i >= 0; i-- {
		r := f.Rows[i]
		if r.Benchmark == row.Benchmark && r.Scale == row.Scale &&
			r.KeyBits == row.KeyBits && r.Policy == row.Policy &&
			r.Mode == row.Mode && r.Analytic == row.Analytic {
			return r, true
		}
	}
	return BenchRow{}, false
}
