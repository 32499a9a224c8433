// Package flight is the attack stack's flight recorder: it persists a run
// as a self-contained, replayable bundle of artifacts and replays recorded
// runs offline with no chip simulation.
//
// A bundle is a directory:
//
//	manifest.json   run configuration, resolved lock parameters (LFSR
//	                polynomial, key-gate positions), seed of record, and a
//	                host/toolchain fingerprint (schema: docs/manifest.schema.json)
//	oracle.jsonl    every scan session the attack issued: test key,
//	                scan-in, PIs, scan-out, POs, cycle count — one JSON
//	                line per session, in issue order
//	dips.jsonl      one line per SAT-attack iteration: the DIP, the
//	                oracle response, a solver-counter snapshot, wall time
//	trace.jsonl     the run's structured trace stream (internal/trace
//	                JSONL schema): stage spans, progress lines, results,
//	                and the run's periodic metrics samples, whose closing
//	                "snapshot" line is the bundle's one copy of its metrics
//	                (ReadTrace decodes its search telemetry into a Sample)
//	result.json     per-trial outcomes: seed candidates, counters, stop
//	                reason, solver stats
//
// plus the pprof captures the manifest lists, and nothing else.
//
// Recording is strictly additive: a Recorder taps the existing extension
// points (the core.Chip oracle interface, satattack.Options.OnDIP, and it
// is itself a trace.Sink) and never changes what the attack computes; with
// no recorder installed the attack path is bit-identical to an unrecorded
// run. dynunlock.RunExperimentCtx installs every tap; a front end only
// creates the recorder and closes it.
//
// Replay inverts the capture: Bundle.ReplayChip returns a core.Chip that
// serves recorded sessions instead of simulating silicon, so a recorded
// attack re-runs anywhere — the post-mortem discipline the oracle-guided
// SAT attack needs when runs diverge between hosts or commits — and
// Bundle.Replay re-executes whole experiments with a test-enforced
// bit-identical result.
package flight

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"

	"dynunlock/internal/lock"
	"dynunlock/internal/sat"
	"dynunlock/internal/scan"
)

// FormatVersion identifies the bundle layout; bump on incompatible change.
// Version history:
//
//	1  initial layout (manifest, oracle/DIP transcripts, trace, metrics, result)
//	2  adds Manifest.Profiles: optional pprof captures stored in the bundle
//	3  adds the trial encode counters EncodeVars/EncodeClauses
//	4  adds anatomy.json (live-captured solver search telemetry: LBD
//	   histograms and restart counts per DIP) and Manifest.Anatomy
//	5  one attack pipeline (AIG encoding, native XOR rows, inprocessing):
//	   the manifest drops the nativeXor/aig/simplify encode-variant keys.
//	   Later v5 recorders write neither metrics.json nor anatomy.json nor
//	   the manifest's anatomy key: the closing metrics sample in
//	   trace.jsonl holds the same telemetry. Readers ignore all three.
//
// Readers accept only FormatVersion. Bundles of versions 1–4 may have been
// recorded on an encode path that no longer exists, so they are refused
// with a *BundleError asking for a re-recording instead of being replayed
// on the wrong path.
const (
	FormatVersion    = 5
	MinFormatVersion = 5
)

// Manifest is the bundle's self-description: everything needed to rebuild
// the locked design and re-run the attack, plus a provenance fingerprint.
type Manifest struct {
	FormatVersion int    `json:"formatVersion"`
	CreatedAt     string `json:"createdAt"` // RFC3339
	Tool          string `json:"tool"`      // recording command, e.g. "dynunlock", "tables"

	// Experiment configuration (mirrors dynunlock.ExperimentConfig).
	Benchmark      string `json:"benchmark"` // base benchmark name (pre-scaling)
	Scale          int    `json:"scale"`
	Trials         int    `json:"trials"`
	Mode           string `json:"mode"` // "linear" | "direct"
	EnumerateLimit int    `json:"enumerateLimit"`
	MaxIterations  int    `json:"maxIterations"`
	// SeedBase is the seed of record: every per-trial chip secret derives
	// from it, so the whole experiment is reproducible from this one value.
	SeedBase int64 `json:"seedBase"`

	Lock        LockInfo    `json:"lock"`
	Fingerprint Fingerprint `json:"fingerprint"`

	// Profiles lists pprof capture files stored in the bundle directory
	// (e.g. "cpu.pprof", "heap.pprof"), recorded when the run was started
	// with -profile. Empty on unprofiled runs.
	Profiles []string `json:"profiles,omitempty"`
}

// LockInfo is the resolved locking configuration of the recorded design:
// the attacker-visible structure under the paper's threat model.
type LockInfo struct {
	KeyBits       int        `json:"keyBits"`
	NumGates      int        `json:"numGates"`
	Policy        string     `json:"policy"` // "static" | "per-pattern" | "per-cycle"
	Period        int        `json:"period,omitempty"`
	PolyN         int        `json:"polyN,omitempty"`
	PolyTaps      []int      `json:"polyTaps,omitempty"`
	PlacementSeed int64      `json:"placementSeed,omitempty"`
	ChainLength   int        `json:"chainLength"`
	Gates         []GateInfo `json:"gates"`
}

// GateInfo is one key gate's position and key-register binding.
type GateInfo struct {
	Link   int `json:"link"`
	KeyBit int `json:"keyBit"`
}

// Fingerprint records where and with what the bundle was produced.
type Fingerprint struct {
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"numCPU"`
	Host      string `json:"host,omitempty"`
	GitCommit string `json:"gitCommit,omitempty"`
}

// SessionRecord is one oracle.jsonl line: a complete scan session
// transcript. Bit vectors are rendered as "01" strings, index 0 first
// (the gf2.Vec.String convention).
type SessionRecord struct {
	Trial   int      `json:"trial"`
	Seq     int      `json:"seq"` // global issue order across the bundle
	TestKey string   `json:"testKey"`
	ScanIn  string   `json:"scanIn"`
	PIs     []string `json:"pis"`
	ScanOut string   `json:"scanOut"`
	POs     []string `json:"pos"`
	Cycles  uint64   `json:"cycles"`
}

// DIPRecord is one dips.jsonl line: a SAT-attack iteration.
type DIPRecord struct {
	Trial     int         `json:"trial"`
	Iteration int         `json:"iteration"` // 1-based within the trial
	DIP       string      `json:"dip"`
	Response  string      `json:"response"`
	Solver    SolverStats `json:"solver"`  // counter snapshot after the iteration
	SolveMS   float64     `json:"solveMS"` // wall time of the producing SAT call
}

// SolverStats mirrors sat.Stats with stable lowercase JSON names. Zero
// counters are omitted: the XOR counters stay zero on a circuit without XOR
// gates, and the simplify counters on an attack that needed no DIP.
type SolverStats struct {
	Decisions        uint64 `json:"decisions"`
	Propagations     uint64 `json:"propagations"`
	Conflicts        uint64 `json:"conflicts"`
	Restarts         uint64 `json:"restarts"`
	Learnt           uint64 `json:"learnt"`
	Removed          uint64 `json:"removed"`
	XorPropagations  uint64 `json:"xorPropagations,omitempty"`
	XorConflicts     uint64 `json:"xorConflicts,omitempty"`
	SimplifyCalls    uint64 `json:"simplifyCalls,omitempty"`
	SimplifyRemoved  uint64 `json:"simplifyRemoved,omitempty"`
	SimplifyStrength uint64 `json:"simplifyStrengthened,omitempty"`
}

// diff names every counter that differs between s and o, as
// "name recorded != replayed", in field order.
func (s SolverStats) diff(o SolverStats) []string {
	var out []string
	for _, c := range []struct {
		name string
		a, b uint64
	}{
		{"decisions", s.Decisions, o.Decisions},
		{"propagations", s.Propagations, o.Propagations},
		{"conflicts", s.Conflicts, o.Conflicts},
		{"restarts", s.Restarts, o.Restarts},
		{"learnt", s.Learnt, o.Learnt},
		{"removed", s.Removed, o.Removed},
		{"xorPropagations", s.XorPropagations, o.XorPropagations},
		{"xorConflicts", s.XorConflicts, o.XorConflicts},
		{"simplifyCalls", s.SimplifyCalls, o.SimplifyCalls},
		{"simplifyRemoved", s.SimplifyRemoved, o.SimplifyRemoved},
		{"simplifyStrengthened", s.SimplifyStrength, o.SimplifyStrength},
	} {
		if c.a != c.b {
			out = append(out, fmt.Sprintf("%s %d != %d", c.name, c.a, c.b))
		}
	}
	return out
}

// FromSatStats converts solver counters to the serialized form.
func FromSatStats(s sat.Stats) SolverStats {
	return SolverStats{
		Decisions:        s.Decisions,
		Propagations:     s.Propagations,
		Conflicts:        s.Conflicts,
		Restarts:         s.Restarts,
		Learnt:           s.Learnt,
		Removed:          s.Removed,
		XorPropagations:  s.XorPropagations,
		XorConflicts:     s.XorConflicts,
		SimplifyCalls:    s.SimplifyCalls,
		SimplifyRemoved:  s.SimplifyRemoved,
		SimplifyStrength: s.SimplifyStrengthened,
	}
}

// ResultDoc is result.json: the terminal outcome of the recorded run.
type ResultDoc struct {
	FormatVersion  int           `json:"formatVersion"`
	Trials         []TrialRecord `json:"trials"`
	Stopped        bool          `json:"stopped,omitempty"`
	StopReason     string        `json:"stopReason,omitempty"`
	ElapsedSeconds float64       `json:"elapsedSeconds"`
}

// TrialRecord is one trial's normalized outcome. SeedCandidates are bit
// strings sorted lexicographically so recorded and replayed sets compare
// bytewise.
type TrialRecord struct {
	Trial          int         `json:"trial"`
	SecretSeed     string      `json:"secretSeed"` // ground truth, for success scoring
	SeedCandidates []string    `json:"seedCandidates"`
	Exact          bool        `json:"exact"`
	Converged      bool        `json:"converged"`
	Closed         string      `json:"closed,omitempty"` // core.Close; absent unless converged, and in older bundles
	Verified       bool        `json:"verified"`
	Success        bool        `json:"success"`
	Iterations     int         `json:"iterations"`
	Queries        int         `json:"queries"`
	Rank           int         `json:"rank"`
	Stopped        bool        `json:"stopped,omitempty"`
	StopReason     string      `json:"stopReason,omitempty"`
	Seconds        float64     `json:"seconds"`
	Solver         SolverStats `json:"solver"`
	// CheckSolver holds the uniqueness check's solver counters, kept apart
	// from the miter's in Solver; absent when no check ran.
	CheckSolver *SolverStats `json:"checkSolver,omitempty"`
	// EncodeVars/EncodeClauses count solver variables and emitted clauses
	// (including native XOR rows) attributable to circuit encoding across
	// the whole DIP loop.
	EncodeVars    uint64 `json:"encodeVars,omitempty"`
	EncodeClauses uint64 `json:"encodeClauses,omitempty"`
}

// LockInfoFor extracts the serialized locking description from a design.
func LockInfoFor(d *lock.Design) LockInfo {
	li := LockInfo{
		KeyBits:       d.Config.KeyBits,
		NumGates:      d.Config.NumGates,
		Policy:        policyToken(d.Config.Policy),
		Period:        d.Config.Period,
		PlacementSeed: d.Config.PlacementSeed,
		ChainLength:   d.Chain.Length,
	}
	if d.Config.Policy != scan.Static {
		li.PolyN = d.Config.Poly.N
		li.PolyTaps = append([]int(nil), d.Config.Poly.Taps...)
	}
	for _, g := range d.Chain.Gates {
		li.Gates = append(li.Gates, GateInfo{Link: g.Link, KeyBit: g.KeyBit})
	}
	return li
}

// policyToken renders a policy as the stable manifest token (Policy.String
// carries paper annotations like "per-cycle(EFF-Dyn)" that do not belong in
// a machine-read schema).
func policyToken(p scan.Policy) string {
	switch p {
	case scan.Static:
		return "static"
	case scan.PerPattern:
		return "per-pattern"
	default:
		return "per-cycle"
	}
}

// ParsePolicy inverts policyToken.
func ParsePolicy(s string) (scan.Policy, error) {
	switch s {
	case "static":
		return scan.Static, nil
	case "per-pattern":
		return scan.PerPattern, nil
	case "per-cycle":
		return scan.PerCycle, nil
	}
	return 0, fmt.Errorf("flight: unknown policy %q", s)
}

// NewFingerprint samples the current process environment. The git commit
// comes from the binary's embedded VCS build info (see gitCommit); it is
// empty when the binary carries none, as go test binaries do.
func NewFingerprint() Fingerprint {
	fp := Fingerprint{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	if h, err := os.Hostname(); err == nil {
		fp.Host = h
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		fp.GitCommit = gitCommit(bi.Settings)
	}
	return fp
}

// gitCommit is the commit a build's VCS settings name, with "-dirty"
// appended when the build's tree had uncommitted edits (vcs.modified),
// as git describe --dirty marks it: such a build is not that commit.
func gitCommit(settings []debug.BuildSetting) string {
	var rev string
	var modified bool
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if rev != "" && modified {
		rev += "-dirty"
	}
	return rev
}

// BitString renders a bit vector "01…", index 0 first.
func BitString(bs []bool) string {
	out := make([]byte, len(bs))
	for i, b := range bs {
		if b {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

// ParseBits inverts BitString.
func ParseBits(s string) ([]bool, error) {
	out := make([]bool, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			out[i] = true
		default:
			return nil, fmt.Errorf("flight: bit string %q: byte %d is %q, want '0' or '1'", s, i, s[i])
		}
	}
	return out, nil
}
