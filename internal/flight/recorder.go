package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"dynunlock/internal/core"
	"dynunlock/internal/gf2"
	"dynunlock/internal/trace"
)

// Bundle file names.
const (
	ManifestFile = "manifest.json"
	OracleFile   = "oracle.jsonl"
	DIPsFile     = "dips.jsonl"
	TraceFile    = "trace.jsonl"
	MetricsFile  = "metrics.json"
	ResultFile   = "result.json"

	// AnatomyFile holds live-captured solver search telemetry (format
	// version 4, anatomy-enabled runs only).
	AnatomyFile = "anatomy.json"

	// Profile capture files (format version 2, -profile runs only).
	CPUProfileFile  = "cpu.pprof"
	HeapProfileFile = "heap.pprof"
)

// Recorder writes a run bundle. It is safe for concurrent use: condition
// sweeps record trials from worker goroutines, and all appends are
// serialized under one mutex. Create it, hand it to the experiment layer
// (which installs its taps: WrapChip, AppendDIP, and the recorder itself
// as the trace sink, then feeds it trial results and metrics.json), and
// Close it to finalize result.json.
type Recorder struct {
	// Tool names the recording command ("dynunlock", "tables"); it is
	// stamped into the manifest when the experiment layer writes it.
	Tool string

	dir string

	mu       sync.Mutex
	oracleF  *os.File
	oracleW  *bufio.Writer
	dipsF    *os.File
	dipsW    *bufio.Writer
	traceF   *os.File
	traceW   *trace.JSONLSink
	seq      int
	result   ResultDoc
	start    time.Time
	closed   bool
	durable  bool
	cpuF     *os.File
	profiles []string
}

// SetDurable switches the transcript writers to flush-per-record: every
// oracle.jsonl and dips.jsonl append reaches the file before the attack
// proceeds, so a killed process leaves a loadable prefix (at worst one
// torn final line, which OpenPartial drops). The daemon records every
// job durably — resumability is what makes its bundles trustworthy;
// single-run CLIs keep the buffered default (flush at Close).
func (r *Recorder) SetDurable(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.durable = on
}

// Create opens a new bundle directory (making it if needed) and the
// streaming record files. The manifest is written separately by
// WriteManifest once the recording layer has resolved the design.
func Create(dir string) (*Recorder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("flight: create bundle: %w", err)
	}
	r := &Recorder{dir: dir, start: time.Now()}
	r.result.FormatVersion = FormatVersion
	var err error
	if r.oracleF, err = os.Create(filepath.Join(dir, OracleFile)); err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	r.oracleW = bufio.NewWriter(r.oracleF)
	if r.dipsF, err = os.Create(filepath.Join(dir, DIPsFile)); err != nil {
		r.oracleF.Close()
		return nil, fmt.Errorf("flight: %w", err)
	}
	r.dipsW = bufio.NewWriter(r.dipsF)
	if r.traceF, err = os.Create(filepath.Join(dir, TraceFile)); err != nil {
		r.oracleF.Close()
		r.dipsF.Close()
		return nil, fmt.Errorf("flight: %w", err)
	}
	r.traceW = trace.NewJSONLSink(r.traceF)
	return r, nil
}

// Dir returns the bundle directory.
func (r *Recorder) Dir() string { return r.dir }

// WriteManifest writes manifest.json. A zero CreatedAt/FormatVersion is
// stamped here so callers only fill the run description; the recorder's
// active profile captures are stamped when the caller leaves Profiles empty.
func (r *Recorder) WriteManifest(m Manifest) error {
	if m.FormatVersion == 0 {
		m.FormatVersion = FormatVersion
	}
	if m.CreatedAt == "" {
		m.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	}
	if len(m.Profiles) == 0 {
		m.Profiles = r.Profiles()
	}
	return writeJSONFile(filepath.Join(r.dir, ManifestFile), &m)
}

// StartProfiles begins per-run pprof capture into the bundle: a CPU profile
// streams to cpu.pprof immediately, and Close writes a terminal heap
// profile to heap.pprof. Both names are stamped into the manifest (format
// version 2). Fails if another CPU profile is already active in the
// process.
func (r *Recorder) StartProfiles() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cpuF != nil {
		return fmt.Errorf("flight: profiles already started")
	}
	f, err := os.Create(filepath.Join(r.dir, CPUProfileFile))
	if err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("flight: %w", err)
	}
	r.cpuF = f
	r.profiles = []string{CPUProfileFile, HeapProfileFile}
	return nil
}

// Profiles returns the profile file names this recorder is capturing (nil
// when StartProfiles was never called).
func (r *Recorder) Profiles() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.profiles...)
}

// stopProfiles finalizes an active capture: stops the CPU profile and
// writes the heap profile. Called under r.mu from Close; a no-op when
// StartProfiles was never called.
func (r *Recorder) stopProfiles() error {
	if r.cpuF == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := r.cpuF.Close()
	r.cpuF = nil
	hf, herr := os.Create(filepath.Join(r.dir, HeapProfileFile))
	if herr != nil {
		if err == nil {
			err = herr
		}
		return err
	}
	runtime.GC() // settle the heap so the profile reflects live objects
	if werr := pprof.Lookup("heap").WriteTo(hf, 0); werr != nil && err == nil {
		err = werr
	}
	if cerr := hf.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Emit implements trace.Sink: the run's trace events stream into the
// bundle's trace.jsonl.
func (r *Recorder) Emit(ev trace.Event) { r.traceW.Emit(ev) }

// AppendDIP appends one dips.jsonl line.
func (r *Recorder) AppendDIP(rec DIPRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	appendJSONL(r.dipsW, &rec)
	if r.durable {
		r.dipsW.Flush()
	}
}

// WrapChip decorates a chip so every scan session it serves is appended to
// oracle.jsonl, tagged with the given trial. The decorator is transparent:
// all calls forward to the inner chip, session hooks installed on the
// wrapper chain onto the inner chip's hook list, and the session outputs
// are untouched — a recorded attack computes exactly what an unrecorded
// one does.
func (r *Recorder) WrapChip(trial int, inner core.Chip) core.Chip {
	rc := &recordingChip{Chip: inner, rec: r, trial: trial}
	// Cycle accounting rides the existing SessionHook chain: the recorder's
	// hook stashes the session's cycle cost for the record line and forwards
	// to whatever was installed before.
	var prev func(uint64)
	prev = inner.SetSessionHook(func(cycles uint64) {
		rc.lastCycles = cycles
		if prev != nil {
			prev(cycles)
		}
	})
	return rc
}

// recordingChip is the capture decorator returned by WrapChip.
type recordingChip struct {
	core.Chip // inner oracle; Design/Reset/SetSessionHook forward directly
	rec       *Recorder
	trial     int
	// lastCycles is the cycle cost of the most recent session, set by the
	// recorder's session hook before SessionN returns. Attack layers issue
	// sessions sequentially, so a single slot suffices.
	lastCycles uint64
}

func (c *recordingChip) Session(testKey, scanIn, pi []bool) (scanOut, po []bool) {
	out, pos := c.SessionN(testKey, scanIn, [][]bool{pi})
	return out, pos[0]
}

func (c *recordingChip) SessionN(testKey, scanIn []bool, pis [][]bool) (scanOut []bool, pos [][]bool) {
	scanOut, pos = c.Chip.SessionN(testKey, scanIn, pis)
	rec := SessionRecord{
		Trial:   c.trial,
		TestKey: BitString(testKey),
		ScanIn:  BitString(scanIn),
		ScanOut: BitString(scanOut),
		Cycles:  c.lastCycles,
	}
	for _, pi := range pis {
		rec.PIs = append(rec.PIs, BitString(pi))
	}
	for _, po := range pos {
		rec.POs = append(rec.POs, BitString(po))
	}
	c.rec.mu.Lock()
	defer c.rec.mu.Unlock()
	if c.rec.closed {
		return scanOut, pos
	}
	rec.Seq = c.rec.seq
	c.rec.seq++
	appendJSONL(c.rec.oracleW, &rec)
	if c.rec.durable {
		c.rec.oracleW.Flush()
	}
	return scanOut, pos
}

// TrialFromResult normalizes one attack result into the serialized trial
// record. Candidates are sorted so record and replay compare bytewise.
func TrialFromResult(trial int, secretSeed gf2.Vec, res *core.Result, seconds float64, success bool) TrialRecord {
	t := TrialRecord{
		Trial:      trial,
		SecretSeed: secretSeed.String(),
		Exact:      res.Exact,
		Converged:  res.Converged,
		Analytic:   res.Analytic,
		Verified:   res.Verified,
		Success:    success,
		Iterations: res.Iterations,
		Queries:    res.Queries,
		Rank:       res.Rank,
		Stopped:    res.Stopped,
		StopReason: string(res.StopReason),
		Seconds:    seconds,
		Solver:     FromSatStats(res.SolverStats),

		EncodeVars:    res.EncodeVars,
		EncodeClauses: res.EncodeClauses,
	}
	for _, c := range res.SeedCandidates {
		t.SeedCandidates = append(t.SeedCandidates, c.String())
	}
	sort.Strings(t.SeedCandidates)
	return t
}

// RecordTrial appends a trial outcome to result.json's trial list.
func (r *Recorder) RecordTrial(t TrialRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.result.Trials = append(r.result.Trials, t)
}

// SetStopped records that a bound ended the run early.
func (r *Recorder) SetStopped(stopped bool, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.result.Stopped = stopped
	r.result.StopReason = reason
}

// WriteAnatomy writes anatomy.json: the live-captured search telemetry
// document (see AnatomyDoc). A zero FormatVersion is stamped here. Call it
// before Close, once the capture layer has sealed every trial.
func (r *Recorder) WriteAnatomy(doc *AnatomyDoc) error {
	if doc.FormatVersion == 0 {
		doc.FormatVersion = AnatomyDocVersion
	}
	return writeJSONFile(filepath.Join(r.dir, AnatomyFile), doc)
}

// WriteMetrics writes metrics.json from a metrics snapshot — the run's
// own label scope (metrics.Handle.Snapshot), so a bundle carries only its
// own totals even when runs share a registry. A nil snapshot writes an
// empty document so the bundle layout stays uniform.
func (r *Recorder) WriteMetrics(snap map[string]any) error {
	if snap == nil {
		snap = map[string]any{}
	}
	return writeJSONFile(filepath.Join(r.dir, MetricsFile), snap)
}

// Close flushes the streaming files and writes result.json. Idempotent;
// the first call wins.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	r.result.ElapsedSeconds = time.Since(r.start).Seconds()
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	keep(r.stopProfiles())
	keep(r.oracleW.Flush())
	keep(r.oracleF.Close())
	keep(r.dipsW.Flush())
	keep(r.dipsF.Close())
	keep(r.traceF.Close())
	keep(writeJSONFile(filepath.Join(r.dir, ResultFile), &r.result))
	return firstErr
}

// appendJSONL writes v as one JSON line; marshal errors are impossible for
// the record types (plain strings and integers), encode errors surface at
// Flush via the writer's sticky error.
func appendJSONL(w *bufio.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	w.Write(b)
	w.WriteByte('\n')
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("flight: write %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("flight: write %s: %w", filepath.Base(path), err)
	}
	return nil
}
