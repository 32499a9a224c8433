package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"dynunlock/internal/core"
	"dynunlock/internal/lock"
)

// Resume support: a job that died mid-attack (crash, eviction, SIGKILL)
// leaves a partial bundle behind — manifest.json plus whatever prefix of
// oracle.jsonl / dips.jsonl the durable recorder flushed, usually with
// no result.json. OpenPartial loads that prefix leniently, and
// NewResumeChip chains a Replay over it in front of a live chip: the
// resumed attack re-derives its solver state by replaying the recorded
// queries (the sequential engine re-asks exactly the same questions),
// then transparently continues on silicon where the transcript ends.

// OpenPartial loads a possibly-incomplete bundle: the manifest is
// required and validated, result.json is optional (absent on a crashed
// run, partial on an evicted one), and a torn final line in either
// transcript — the half-written record of the instant the process died —
// is dropped instead of failing the load. Corruption anywhere except the
// final line, and an oracle.jsonl record that does not fit the manifest
// (see Open), still return a *BundleError wrapping ErrCorrupt.
func OpenPartial(dir string) (*Bundle, error) {
	b := &Bundle{Dir: dir}
	if err := readJSONFile(filepath.Join(dir, ManifestFile), &b.Manifest); err != nil {
		return nil, err
	}
	if err := ValidateManifest(&b.Manifest); err != nil {
		return nil, &BundleError{Path: filepath.Join(dir, ManifestFile), Err: fmt.Errorf("%w: %v", ErrCorrupt, err)}
	}
	if _, err := os.Stat(filepath.Join(dir, ResultFile)); err == nil {
		if err := readJSONFile(filepath.Join(dir, ResultFile), &b.Result); err != nil {
			return nil, err
		}
	}
	if err := readJSONLTornTail(filepath.Join(dir, OracleFile), func() any { return &SessionRecord{} }, b.addSession()); err != nil {
		return nil, err
	}
	if err := readJSONLTornTail(filepath.Join(dir, DIPsFile), func() any { return &DIPRecord{} }, b.addDIP); err != nil {
		return nil, err
	}
	return b, nil
}

// readJSONLTornTail is readJSONL tolerating exactly one unparseable
// final line (a write torn by process death); a record that parses but
// add rejects is corrupt wherever it is. A missing file yields an empty
// prefix, not an error — the run may have died before its first flush.
func readJSONLTornTail(path string, mk func() any, add func(v any) error) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("flight: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	var torn *BundleError
	for sc.Scan() {
		lineNo++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		if torn != nil {
			// The bad line was not the last one: genuine corruption.
			return torn
		}
		v := mk()
		if err := json.Unmarshal(text, v); err != nil {
			torn = &BundleError{Path: path, Line: lineNo, Err: fmt.Errorf("%w: %v", ErrCorrupt, err)}
			continue
		}
		if err := add(v); err != nil {
			return &BundleError{Path: path, Line: lineNo, Err: fmt.Errorf("%w: %v", ErrCorrupt, err)}
		}
	}
	if err := sc.Err(); err != nil {
		return &BundleError{Path: path, Line: lineNo, Err: fmt.Errorf("%w: %v", ErrCorrupt, err)}
	}
	return nil
}

// ResumeChip serves scan sessions from a recorded transcript prefix
// while it lasts and from a live chip afterwards. Because scan sessions
// are pure functions of (testKey, scanIn, PIs) — the dynamic key
// schedule restarts at every session load — a deterministic sequential
// attack re-asks the recorded prefix verbatim, reconstructs the same
// solver state, and then continues live with no seam: the resumed run's
// result is identical to an uninterrupted one.
type ResumeChip struct {
	replay *Replay
	live   core.Chip
	served atomic.Uint64
}

// NewResumeChip chains replay in front of live. The live chip must be
// fabricated with the same secrets the transcript was recorded against
// (same design, same seed derivation) or the post-prefix sessions will
// answer from a different key stream.
func NewResumeChip(replay *Replay, live core.Chip) *ResumeChip {
	return &ResumeChip{replay: replay, live: live}
}

// Design returns the live chip's design (identical to the replay's by
// construction).
func (c *ResumeChip) Design() *lock.Design { return c.live.Design() }

// Reset forwards to the live chip; the replay side is stateless.
func (c *ResumeChip) Reset() { c.live.Reset() }

// SetSessionHook installs h on both sides so cycle accounting is
// continuous across the transcript/live seam: replayed sessions report
// their recorded cycle counts, live sessions their simulated ones.
func (c *ResumeChip) SetSessionHook(h func(cycles uint64)) (prev func(cycles uint64)) {
	prev = c.live.SetSessionHook(h)
	c.replay.SetSessionHook(h)
	return prev
}

// Session serves a single-capture session.
func (c *ResumeChip) Session(testKey, scanIn, pi []bool) (scanOut, po []bool) {
	out, pos := c.SessionN(testKey, scanIn, [][]bool{pi})
	return out, pos[0]
}

// SessionN serves from the transcript when it can, silicon when it
// cannot.
func (c *ResumeChip) SessionN(testKey, scanIn []bool, pis [][]bool) (scanOut []bool, pos [][]bool) {
	if out, p, ok := c.replay.TryServe(testKey, scanIn, pis); ok {
		c.served.Add(1)
		return out, p
	}
	return c.live.SessionN(testKey, scanIn, pis)
}

// ServedFromTranscript returns how many sessions were answered from the
// recorded prefix — observability for resume: a resumed job reports how
// much history it replayed before touching silicon.
func (c *ResumeChip) ServedFromTranscript() uint64 { return c.served.Load() }
