package flight

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dynunlock/internal/bench"
	"dynunlock/internal/lock"
	"dynunlock/internal/trace"
)

// ErrCorrupt marks a bundle file that failed to parse — a malformed or
// truncated JSONL line, an unreadable manifest. Every parse failure is
// reported as a *BundleError wrapping ErrCorrupt, never a panic, so
// tooling can distinguish "damaged bundle" from I/O errors.
var ErrCorrupt = errors.New("flight: corrupt or truncated bundle file")

// ErrOracleMiss marks a replay that requested a session the recorded
// transcript does not contain (a truncated oracle.jsonl, or a bundle
// replayed under a different configuration than it was recorded with).
var ErrOracleMiss = errors.New("flight: oracle transcript exhausted or mismatched")

// BundleError locates a bundle fault in a file (and line, when line-
// oriented). It wraps the underlying cause; errors.Is sees ErrCorrupt for
// parse faults.
type BundleError struct {
	Path string
	Line int // 1-based; 0 when not line-oriented
	Err  error
}

func (e *BundleError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("flight: %s:%d: %v", e.Path, e.Line, e.Err)
	}
	return fmt.Sprintf("flight: %s: %v", e.Path, e.Err)
}

func (e *BundleError) Unwrap() error { return e.Err }

// Bundle is a loaded run bundle: the manifest, the recorded result, and
// the full oracle and DIP transcripts.
type Bundle struct {
	Dir      string
	Manifest Manifest
	Result   ResultDoc
	Sessions []SessionRecord
	DIPs     []DIPRecord
}

// Open loads a bundle from dir. Damaged files return a *BundleError
// wrapping ErrCorrupt; a missing required file surfaces the fs error.
// result.json and dips.jsonl are required (every recorder writes them);
// metrics.json and trace.jsonl are not parsed here (ReadTrace reads the
// trace on demand).
func Open(dir string) (*Bundle, error) {
	b := &Bundle{Dir: dir}
	if err := readJSONFile(filepath.Join(dir, ManifestFile), &b.Manifest); err != nil {
		return nil, err
	}
	if err := ValidateManifest(&b.Manifest); err != nil {
		return nil, &BundleError{Path: filepath.Join(dir, ManifestFile), Err: fmt.Errorf("%w: %v", ErrCorrupt, err)}
	}
	if err := readJSONFile(filepath.Join(dir, ResultFile), &b.Result); err != nil {
		return nil, err
	}
	if err := readJSONL(filepath.Join(dir, OracleFile), func() any { return &SessionRecord{} }, func(v any) {
		b.Sessions = append(b.Sessions, *v.(*SessionRecord))
	}); err != nil {
		return nil, err
	}
	if err := readJSONL(filepath.Join(dir, DIPsFile), func() any { return &DIPRecord{} }, func(v any) {
		b.DIPs = append(b.DIPs, *v.(*DIPRecord))
	}); err != nil {
		return nil, err
	}
	return b, nil
}

// ValidateManifest checks a manifest against the schema contract
// (docs/manifest.schema.json): required fields present, widths consistent,
// gate positions in range. cmd/runs validate and Open both enforce it.
func ValidateManifest(m *Manifest) error {
	if v := m.FormatVersion; v >= 1 && v < MinFormatVersion {
		return fmt.Errorf("formatVersion %d predates the one attack pipeline of format %d; re-record the bundle", v, FormatVersion)
	}
	if m.FormatVersion < MinFormatVersion || m.FormatVersion > FormatVersion {
		return fmt.Errorf("formatVersion %d, want %d..%d", m.FormatVersion, MinFormatVersion, FormatVersion)
	}
	for i, p := range m.Profiles {
		if p == "" || p != filepath.Base(p) {
			return fmt.Errorf("profiles[%d] %q: want a bare file name inside the bundle", i, p)
		}
	}
	if m.CreatedAt == "" {
		return errors.New("createdAt missing")
	}
	if _, err := time.Parse(time.RFC3339, m.CreatedAt); err != nil {
		return fmt.Errorf("createdAt: %v", err)
	}
	if m.Benchmark == "" {
		return errors.New("benchmark missing")
	}
	if m.Trials < 1 {
		return fmt.Errorf("trials %d, want >= 1", m.Trials)
	}
	if m.Mode != "linear" && m.Mode != "direct" {
		return fmt.Errorf("mode %q, want linear|direct", m.Mode)
	}
	li := &m.Lock
	if li.KeyBits < 1 {
		return fmt.Errorf("lock.keyBits %d, want >= 1", li.KeyBits)
	}
	if li.ChainLength < 2 {
		return fmt.Errorf("lock.chainLength %d, want >= 2", li.ChainLength)
	}
	pol, err := ParsePolicy(li.Policy)
	if err != nil {
		return err
	}
	if li.Policy != "static" {
		if li.PolyN != li.KeyBits {
			return fmt.Errorf("lock.polyN %d != keyBits %d", li.PolyN, li.KeyBits)
		}
		if len(li.PolyTaps) == 0 {
			return errors.New("lock.polyTaps missing for dynamic policy")
		}
		for _, t := range li.PolyTaps {
			if t < 1 || t > li.PolyN {
				return fmt.Errorf("lock.polyTaps: tap %d out of range [1,%d]", t, li.PolyN)
			}
		}
	}
	_ = pol
	if len(li.Gates) == 0 {
		return errors.New("lock.gates missing")
	}
	for i, g := range li.Gates {
		if g.Link < 1 || g.Link >= li.ChainLength {
			return fmt.Errorf("lock.gates[%d].link %d out of range [1,%d)", i, g.Link, li.ChainLength)
		}
		if g.KeyBit < 0 || g.KeyBit >= li.KeyBits {
			return fmt.Errorf("lock.gates[%d].keyBit %d out of range [0,%d)", i, g.KeyBit, li.KeyBits)
		}
	}
	if m.Fingerprint.GoVersion == "" {
		return errors.New("fingerprint.goVersion missing")
	}
	return nil
}

// Design rebuilds the recorded locked design from the manifest: the same
// benchmark build and lock.Lock call the recording run made, with the
// resolved parameters pinned. The rebuilt key-gate placement is checked
// against the manifest's recorded gates, so a drifted generator surfaces
// as a typed error instead of a silently different circuit.
func (b *Bundle) Design() (*lock.Design, error) {
	m := &b.Manifest
	entry, ok := bench.ByName(m.Benchmark)
	if !ok {
		return nil, fmt.Errorf("flight: manifest benchmark %q unknown", m.Benchmark)
	}
	if m.Scale > 1 {
		entry = entry.Scaled(m.Scale)
	}
	n, err := entry.Build(0)
	if err != nil {
		return nil, fmt.Errorf("flight: rebuild %s: %w", m.Benchmark, err)
	}
	pol, err := ParsePolicy(m.Lock.Policy)
	if err != nil {
		return nil, err
	}
	cfg := lock.Config{
		KeyBits:       m.Lock.KeyBits,
		NumGates:      m.Lock.NumGates,
		Policy:        pol,
		Period:        m.Lock.Period,
		PlacementSeed: m.Lock.PlacementSeed,
	}
	if m.Lock.Policy != "static" {
		cfg.Poly.N = m.Lock.PolyN
		cfg.Poly.Taps = append([]int(nil), m.Lock.PolyTaps...)
	}
	d, err := lock.Lock(n, cfg)
	if err != nil {
		return nil, fmt.Errorf("flight: relock %s: %w", m.Benchmark, err)
	}
	if d.Chain.Length != m.Lock.ChainLength || len(d.Chain.Gates) != len(m.Lock.Gates) {
		return nil, fmt.Errorf("flight: rebuilt design disagrees with manifest: chain %d/%d gates vs recorded %d/%d",
			d.Chain.Length, len(d.Chain.Gates), m.Lock.ChainLength, len(m.Lock.Gates))
	}
	for i, g := range d.Chain.Gates {
		if g.Link != m.Lock.Gates[i].Link || g.KeyBit != m.Lock.Gates[i].KeyBit {
			return nil, fmt.Errorf("flight: rebuilt key gate %d is (link %d, bit %d), manifest records (link %d, bit %d)",
				i, g.Link, g.KeyBit, m.Lock.Gates[i].Link, m.Lock.Gates[i].KeyBit)
		}
	}
	return d, nil
}

// ReadAnatomy loads a bundle's anatomy.json. Bundles recorded with the
// anatomy capture off have no such file: that returns (nil, nil), never an
// error, so readers degrade to the derivable attribution alone.
func ReadAnatomy(dir string) (*AnatomyDoc, error) {
	path := filepath.Join(dir, AnatomyFile)
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("flight: %w", err)
	}
	var doc AnatomyDoc
	if err := readJSONFile(path, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// ReadTrace parses a bundle's trace.jsonl into completed span records (the
// same shape trace.Collector retains), for stage-table rendering and
// cross-bundle span diffs.
func ReadTrace(dir string) ([]trace.SpanRecord, error) {
	type line struct {
		Ev       string            `json:"ev"`
		Span     string            `json:"span"`
		DurMS    float64           `json:"dur_ms"`
		Counters map[string]uint64 `json:"counters"`
	}
	var spans []trace.SpanRecord
	err := readJSONL(filepath.Join(dir, TraceFile), func() any { return &line{} }, func(v any) {
		l := v.(*line)
		if l.Ev == "span_end" {
			spans = append(spans, trace.SpanRecord{
				Name:     l.Span,
				Duration: time.Duration(l.DurMS * float64(time.Millisecond)),
				Counters: l.Counters,
			})
		}
	})
	return spans, err
}

// readJSONL parses one JSON document per line, allocating each record via
// mk and delivering it via add. Any unparseable line — including a
// truncated final line — returns a *BundleError wrapping ErrCorrupt.
func readJSONL(path string, mk func() any, add func(v any)) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		v := mk()
		if err := json.Unmarshal(text, v); err != nil {
			return &BundleError{Path: path, Line: lineNo, Err: fmt.Errorf("%w: %v", ErrCorrupt, err)}
		}
		add(v)
	}
	if err := sc.Err(); err != nil {
		return &BundleError{Path: path, Line: lineNo, Err: fmt.Errorf("%w: %v", ErrCorrupt, err)}
	}
	return nil
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return &BundleError{Path: path, Err: fmt.Errorf("%w: %v", ErrCorrupt, err)}
	}
	return nil
}
