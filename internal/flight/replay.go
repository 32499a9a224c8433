package flight

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"dynunlock/internal/core"
	"dynunlock/internal/gf2"
	"dynunlock/internal/insight"
	"dynunlock/internal/lock"
)

// Replay is an oracle that answers scan sessions from a recorded transcript
// instead of simulating silicon. It implements core.Chip, so it drops into
// core.AttackCtx / scansat.AttackCtx wherever a fabricated *oracle.Chip
// would go — the attack re-runs offline with no chip model at all.
//
// Sessions match by content, not order: each (testKey, scanIn, PIs) triple
// keys a FIFO of recorded responses, so a replay stays exact as long as the
// attack asks the same questions, even if scheduling reorders them. A query
// the transcript cannot answer never panics: the first miss is latched and
// returned by Err, and the session gets correctly-sized zero outputs so the
// attack can wind down.
//
// Replay is bit-identical: the attack engine is deterministic, so the
// replayed attack issues exactly the recorded queries and reproduces the
// recorded result. A replay that diverges from the transcript reports
// ErrOracleMiss rather than inventing responses.
type Replay struct {
	design *lock.Design

	mu     sync.Mutex
	queues map[string][]*SessionRecord
	pend   int // records not yet served
	hook   func(cycles uint64)
	err    error
}

// NewReplay builds a replay oracle over a session transcript for the given
// design. Records are queued in slice order (recording order).
func NewReplay(design *lock.Design, sessions []*SessionRecord) *Replay {
	r := &Replay{design: design, queues: make(map[string][]*SessionRecord)}
	for _, s := range sessions {
		k := sessionKey(s.TestKey, s.ScanIn, s.PIs)
		r.queues[k] = append(r.queues[k], s)
		r.pend++
	}
	return r
}

// ReplayChip returns a replay oracle for one recorded trial, with the
// design rebuilt from the manifest.
func (b *Bundle) ReplayChip(trial int) (*Replay, error) {
	d, err := b.Design()
	if err != nil {
		return nil, err
	}
	var recs []*SessionRecord
	for i := range b.Sessions {
		if b.Sessions[i].Trial == trial {
			recs = append(recs, &b.Sessions[i])
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%w: bundle has no sessions for trial %d", ErrOracleMiss, trial)
	}
	return NewReplay(d, recs), nil
}

func sessionKey(testKey, scanIn string, pis []string) string {
	return testKey + "|" + scanIn + "|" + strings.Join(pis, ",")
}

// Design returns the locked design the transcript was recorded against.
func (r *Replay) Design() *lock.Design { return r.design }

// Reset is a no-op: the transcript already embeds the chip's state
// evolution, and the attack resets only at session boundaries.
func (r *Replay) Reset() {}

// SetSessionHook installs the cycle-accounting hook; recorded cycle counts
// are replayed into it, so trace counters match the original run.
func (r *Replay) SetSessionHook(h func(cycles uint64)) (prev func(cycles uint64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev = r.hook
	r.hook = h
	return prev
}

// Err returns the first transcript miss, or nil when every session so far
// was answered from the recording. A non-nil Err means the replayed result
// is not trustworthy (the attack saw fabricated zero responses).
func (r *Replay) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Remaining returns the number of recorded sessions not yet served.
func (r *Replay) Remaining() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pend
}

// Session replays a single-capture session.
func (r *Replay) Session(testKey, scanIn, pi []bool) (scanOut, po []bool) {
	out, pos := r.SessionN(testKey, scanIn, [][]bool{pi})
	return out, pos[0]
}

// SessionN replays a multi-capture session from the transcript.
func (r *Replay) SessionN(testKey, scanIn []bool, pis [][]bool) (scanOut []bool, pos [][]bool) {
	piStrs := make([]string, len(pis))
	for i, pi := range pis {
		piStrs[i] = BitString(pi)
	}
	k := sessionKey(BitString(testKey), BitString(scanIn), piStrs)

	r.mu.Lock()
	q := r.queues[k]
	if len(q) == 0 {
		if r.err == nil {
			r.err = fmt.Errorf("%w: no recorded response for session testKey=%s scanIn=%s pis=%d",
				ErrOracleMiss, BitString(testKey), BitString(scanIn), len(pis))
		}
		r.mu.Unlock()
		// Fabricate correctly-sized zero outputs so the caller can finish
		// its iteration and observe Err instead of crashing mid-attack.
		scanOut = make([]bool, r.design.Chain.Length)
		pos = make([][]bool, len(pis))
		for i := range pos {
			pos[i] = make([]bool, r.design.View.NumPO)
		}
		return scanOut, pos
	}
	rec := q[0]
	r.queues[k] = q[1:]
	r.pend--
	hook := r.hook
	r.mu.Unlock()

	scanOut, err := ParseBits(rec.ScanOut)
	if err != nil {
		scanOut = make([]bool, r.design.Chain.Length)
	}
	pos = make([][]bool, len(rec.POs))
	for i, s := range rec.POs {
		po, err := ParseBits(s)
		if err != nil {
			po = make([]bool, r.design.View.NumPO)
		}
		pos[i] = po
	}
	if hook != nil {
		hook(rec.Cycles)
	}
	return scanOut, pos
}

// Replay re-runs the recorded experiment offline: every trial in
// result.json is re-attacked through a replay oracle built from
// oracle.jsonl, under the manifest's attack options. Success is scored
// against the recorded secret seed.
func (b *Bundle) Replay(ctx context.Context) (*ResultDoc, error) {
	mode := core.ModeLinear
	if b.Manifest.Mode == "direct" {
		mode = core.ModeDirect
	}
	out := &ResultDoc{FormatVersion: FormatVersion}
	start := time.Now()
	for _, rt := range b.Result.Trials {
		chip, err := b.ReplayChip(rt.Trial)
		if err != nil {
			return nil, err
		}
		opts := core.Options{
			Mode:           mode,
			EnumerateLimit: b.Manifest.EnumerateLimit,
			MaxIterations:  b.Manifest.MaxIterations,
		}
		// An analytic recording ran with the insight feedback loop armed;
		// rebuild the same tracker so the replay short-circuits at the same
		// iteration. A tracker setup failure degrades exactly like the
		// recording side (dynunlock.RunExperimentCtx): untracked attack.
		if b.Manifest.Analytic {
			if tk, terr := insight.New(chip.Design(), insight.Options{}); terr == nil {
				opts.OnDIP = tk.DIPObserver()
				opts.Insight = tk
			}
		}
		t0 := time.Now()
		res, err := core.AttackCtx(ctx, chip, opts)
		if err != nil {
			return nil, fmt.Errorf("flight: replay trial %d: %w", rt.Trial, err)
		}
		if rerr := chip.Err(); rerr != nil {
			return nil, fmt.Errorf("flight: replay trial %d: %w", rt.Trial, rerr)
		}
		seedBits, err := ParseBits(rt.SecretSeed)
		if err != nil {
			return nil, &BundleError{Path: ResultFile, Err: fmt.Errorf("%w: trial %d secretSeed: %v", ErrCorrupt, rt.Trial, err)}
		}
		seed := gf2.FromBools(seedBits)
		success := core.ContainsSeed(res.SeedCandidates, seed)
		out.Trials = append(out.Trials,
			TrialFromResult(rt.Trial, seed, res, time.Since(t0).Seconds(), success))
	}
	out.Stopped = b.Result.Stopped
	out.StopReason = b.Result.StopReason
	out.ElapsedSeconds = time.Since(start).Seconds()
	return out, nil
}

// Compare diffs the deterministic fields of a recorded and a replayed
// result: per-trial seed-candidate sets, iteration and query counts, the
// exact/converged/success flags, and every solver counter stored per
// trial. The search is deterministic, so a moved counter is named: it
// means the solver took a different search path. Wall times are never
// compared. An empty slice means the replay is bit-identical on
// everything the attack computes.
func Compare(recorded, replayed *ResultDoc) []string {
	var diffs []string
	if len(recorded.Trials) != len(replayed.Trials) {
		return []string{fmt.Sprintf("trial count: recorded %d, replayed %d",
			len(recorded.Trials), len(replayed.Trials))}
	}
	for i := range recorded.Trials {
		a, b := &recorded.Trials[i], &replayed.Trials[i]
		pfx := fmt.Sprintf("trial %d: ", a.Trial)
		if a.Iterations != b.Iterations {
			diffs = append(diffs, fmt.Sprintf("%siterations %d != %d", pfx, a.Iterations, b.Iterations))
		}
		if a.Queries != b.Queries {
			diffs = append(diffs, fmt.Sprintf("%squeries %d != %d", pfx, a.Queries, b.Queries))
		}
		if a.Exact != b.Exact {
			diffs = append(diffs, fmt.Sprintf("%sexact %v != %v", pfx, a.Exact, b.Exact))
		}
		if a.Converged != b.Converged {
			diffs = append(diffs, fmt.Sprintf("%sconverged %v != %v", pfx, a.Converged, b.Converged))
		}
		if a.Analytic != b.Analytic {
			diffs = append(diffs, fmt.Sprintf("%sanalytic %v != %v", pfx, a.Analytic, b.Analytic))
		}
		if a.Success != b.Success {
			diffs = append(diffs, fmt.Sprintf("%ssuccess %v != %v", pfx, a.Success, b.Success))
		}
		for _, c := range a.Solver.diff(b.Solver) {
			diffs = append(diffs, pfx+"solver "+c)
		}
		if len(a.SeedCandidates) != len(b.SeedCandidates) {
			diffs = append(diffs, fmt.Sprintf("%scandidates %d != %d",
				pfx, len(a.SeedCandidates), len(b.SeedCandidates)))
			continue
		}
		for j := range a.SeedCandidates {
			if a.SeedCandidates[j] != b.SeedCandidates[j] {
				diffs = append(diffs, fmt.Sprintf("%scandidate %d: %s != %s",
					pfx, j, a.SeedCandidates[j], b.SeedCandidates[j]))
				break
			}
		}
	}
	return diffs
}
