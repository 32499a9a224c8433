package flight

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dynunlock/internal/bench"
	"dynunlock/internal/lock"
	"dynunlock/internal/metrics"
	"dynunlock/internal/trace"
)

// ErrCorrupt marks a bundle file that failed to parse — a malformed or
// truncated JSONL line, an unreadable manifest, an oracle.jsonl record
// whose bit strings do not fit the manifest. Every parse failure is
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
// Each oracle.jsonl record is checked against the manifest (see
// sessionShape). result.json and dips.jsonl are required (every recorder
// writes them); trace.jsonl is not parsed here (ReadTrace reads it on
// demand).
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
	if err := readJSONL(filepath.Join(dir, OracleFile), func() any { return &SessionRecord{} }, b.addSession()); err != nil {
		return nil, err
	}
	if err := readJSONL(filepath.Join(dir, DIPsFile), func() any { return &DIPRecord{} }, b.addDIP); err != nil {
		return nil, err
	}
	return b, nil
}

// addSession returns the oracle.jsonl record sink of Open and
// OpenPartial: it checks each record's shape, then appends it.
func (b *Bundle) addSession() func(v any) error {
	shape := sessionShape{keyBits: b.Manifest.Lock.KeyBits, chainLength: b.Manifest.Lock.ChainLength, piBits: -1}
	return func(v any) error {
		s := v.(*SessionRecord)
		if err := shape.check(s); err != nil {
			return err
		}
		b.Sessions = append(b.Sessions, *s)
		return nil
	}
}

// addDIP is the dips.jsonl record sink of Open and OpenPartial.
func (b *Bundle) addDIP(v any) error {
	b.DIPs = append(b.DIPs, *v.(*DIPRecord))
	return nil
}

// sessionShape is what every oracle.jsonl record of a bundle must fit:
// the manifest's key and chain widths, and the PI and PO widths of the
// bundle's first record (piBits < 0 until that record is read).
type sessionShape struct {
	keyBits, chainLength int
	piBits, poBits       int
}

// check rejects a record whose bit strings are not binary, whose test
// key is not keyBits wide or whose scan-in or scan-out is not chainLength
// wide, whose pis and pos are empty or differ in count, or whose PI or PO
// width differs from the first record's.
func (c *sessionShape) check(s *SessionRecord) error {
	if len(s.PIs) == 0 || len(s.PIs) != len(s.POs) {
		return fmt.Errorf("%d pis and %d pos, want the same nonzero count", len(s.PIs), len(s.POs))
	}
	if c.piBits < 0 {
		c.piBits, c.poBits = len(s.PIs[0]), len(s.POs[0])
	}
	if err := checkBits(s.TestKey, c.keyBits); err != nil {
		return fmt.Errorf("testKey: %v", err)
	}
	if err := checkBits(s.ScanIn, c.chainLength); err != nil {
		return fmt.Errorf("scanIn: %v", err)
	}
	if err := checkBits(s.ScanOut, c.chainLength); err != nil {
		return fmt.Errorf("scanOut: %v", err)
	}
	for i := range s.PIs {
		if err := checkBits(s.PIs[i], c.piBits); err != nil {
			return fmt.Errorf("pis[%d]: %v", i, err)
		}
		if err := checkBits(s.POs[i], c.poBits); err != nil {
			return fmt.Errorf("pos[%d]: %v", i, err)
		}
	}
	return nil
}

// checkBits reports a bit string that is not width bits of '0' and '1'.
func checkBits(s string, width int) error {
	if len(s) != width {
		return fmt.Errorf("%d bits wide, want %d", len(s), width)
	}
	if i := strings.IndexFunc(s, func(r rune) bool { return r != '0' && r != '1' }); i >= 0 {
		return fmt.Errorf("byte %d is %q, want '0' or '1'", i, s[i])
	}
	return nil
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
	if li.KeyBits < 1 || li.KeyBits > lock.MaxKeyBits {
		return fmt.Errorf("lock.keyBits %d, want 1..%d (lock.MaxKeyBits)", li.KeyBits, lock.MaxKeyBits)
	}
	if li.ChainLength < 2 {
		return fmt.Errorf("lock.chainLength %d, want >= 2", li.ChainLength)
	}
	if _, err := ParsePolicy(li.Policy); err != nil {
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

// Trace is what the offline views read from a bundle's trace.jsonl: the
// completed spans (the shape trace.Collector retains) and the run's last
// metrics sample, which is its closing one when the run ended; Closing is
// nil when the run sampled nothing.
type Trace struct {
	Spans   []trace.SpanRecord
	Closing *Sample
}

// Sample is the typed part of one metrics sample (a "snapshot" trace
// event, see metrics.StartSampling): the conflicts the run's scope
// counted, and its sampled learnt-clause LBD distribution with one count
// per metrics.LBDBuckets bucket and the overflow last. LBDCounts is empty
// when the sample carried no LBD series.
type Sample struct {
	Conflicts  float64  `json:"conflicts"`
	LBDSamples uint64   `json:"lbd_samples"`
	LBDMean    float64  `json:"lbd_mean"`
	LBDCounts  []uint64 `json:"lbd_counts,omitempty"`
}

// ReadTrace parses a bundle's trace.jsonl into its spans and closing
// sample, for stage-table rendering, cross-bundle span diffs and the
// search telemetry `runs explain` prints. A malformed line, an ill-typed
// sample field, or an lbd_counts that is not one count per bucket returns
// a *BundleError wrapping ErrCorrupt.
func ReadTrace(dir string) (*Trace, error) {
	tr := &Trace{}
	err := readJSONL(filepath.Join(dir, TraceFile), func() any { return &traceLine{} }, func(v any) error {
		l := v.(*traceLine)
		switch l.Ev {
		case "span_end":
			tr.Spans = append(tr.Spans, trace.SpanRecord{
				Name:     l.Span,
				Duration: time.Duration(l.DurMS * float64(time.Millisecond)),
				Counters: l.Counters,
			})
		case "snapshot":
			tr.Closing = l.sample
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// traceLine is one trace.jsonl line as ReadTrace reads it. A snapshot
// line's fields decode into a checked Sample.
type traceLine struct {
	Ev       string            `json:"ev"`
	Span     string            `json:"span"`
	DurMS    float64           `json:"dur_ms"`
	Counters map[string]uint64 `json:"counters"`
	Fields   json.RawMessage   `json:"fields"`
	sample   *Sample
}

// UnmarshalJSON implements json.Unmarshaler.
func (l *traceLine) UnmarshalJSON(data []byte) error {
	type plain traceLine
	if err := json.Unmarshal(data, (*plain)(l)); err != nil {
		return err
	}
	if l.Ev != "snapshot" {
		return nil
	}
	l.sample = &Sample{}
	if len(l.Fields) > 0 {
		if err := json.Unmarshal(l.Fields, l.sample); err != nil {
			return err
		}
	}
	if n, want := len(l.sample.LBDCounts), len(metrics.LBDBuckets)+1; n != 0 && n != want {
		return fmt.Errorf("snapshot lbd_counts has %d buckets, want %d", n, want)
	}
	return nil
}

// readJSONL parses one JSON document per line, allocating each record via
// mk and delivering it via add. Any unparseable line — including a
// truncated final line — or a record add rejects returns a *BundleError
// wrapping ErrCorrupt.
func readJSONL(path string, mk func() any, add func(v any) error) error {
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
		err := json.Unmarshal(text, v)
		if err == nil {
			err = add(v)
		}
		if err != nil {
			return &BundleError{Path: path, Line: lineNo, Err: fmt.Errorf("%w: %v", ErrCorrupt, err)}
		}
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
