// Package anatomy is the attack's attribution layer: it turns a recorded
// (or live) run into a structured breakdown of where the attack spent its
// effort — wall time split across the Fig. 3 stages, per-DIP solver
// counter deltas and difficulty scores, XOR-vs-CNF propagation share, and
// (when the live capture ran) sampled LBD histograms and restart
// telemetry per DIP.
//
// Two sources feed it:
//
//   - Derivation (Derive/FromDir): everything computable offline from a
//     bundle — trace spans give the stage split, consecutive dips.jsonl
//     solver snapshots difference into per-DIP deltas, and result.json
//     anchors the wall time and counter totals. This is why `runs explain`
//     also works on bundles recorded with the live capture off.
//   - Live capture (Capture, capture.go): sampled learnt-clause LBD and
//     restart telemetry from the solver hook, which no offline file
//     records. It persists as anatomy.json and merges into the derived
//     report when present.
package anatomy

import (
	"sort"

	"dynunlock/internal/flight"
	"dynunlock/internal/trace"
)

// FigStages lists the span names of the paper's Fig. 3 attack stages, in
// pipeline order. StageSplit keys on this set: these names get their own
// rows, anything else folds into "other".
var FigStages = []string{"unroll", "encode", "dip_loop", "extract", "enumerate", "refine", "verify"}

// Report is the full attribution of one attack run. Per-stage seconds sum
// exactly to TotalSeconds: the trailing "other" stage is computed as the
// residual (non-Fig.3 spans plus un-spanned time such as lock
// construction and chip fabrication), so nothing is dropped.
type Report struct {
	// Dir is the source bundle directory ("" for in-memory reports).
	Dir string `json:"dir,omitempty"`
	// Bundle is the loaded bundle the report derives from, so one report
	// carries everything the offline views print (manifest, trials,
	// transcripts); nil for in-memory reports.
	Bundle *flight.Bundle `json:"-"`
	// TotalSeconds is the recorded wall time (result.json elapsedSeconds).
	TotalSeconds float64 `json:"totalSeconds"`
	// Stages is the wall-time split in Fig. 3 pipeline order (stages that
	// never ran are omitted) with "other" last. Seconds sum to
	// TotalSeconds by construction.
	Stages []Stage `json:"stages"`
	// Solver totals the per-trial solver counters of result.json — by
	// definition equal to the bundle's recorded sat.Stats.
	Solver flight.SolverStats `json:"solver"`
	// XorShare is the fraction of propagations handled by the native
	// GF(2) XOR layer (0 on a circuit without XOR gates).
	XorShare float64 `json:"xorShare"`
	// DIPs lists every SAT-attack iteration across all trials in record
	// order, with per-iteration counter deltas and difficulty scores.
	DIPs []DIP `json:"dips,omitempty"`
	// Search is the live-captured telemetry (anatomy.json); nil on
	// bundles recorded without the capture.
	Search *flight.AnatomyDoc `json:"search,omitempty"`
}

// Stage is one row of the wall-time split.
type Stage struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// Share is the fraction of TotalSeconds (0 when TotalSeconds is 0).
	Share    float64           `json:"share"`
	Calls    int               `json:"calls"`
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// DIP is one SAT-attack iteration's attribution.
type DIP struct {
	Trial     int     `json:"trial"`
	Iteration int     `json:"iteration"` // 1-based within the trial
	SolveMS   float64 `json:"solveMS"`
	// Delta is the solver counter growth this iteration caused (the
	// difference of consecutive cumulative snapshots; the first iteration
	// of each trial differences against zero — each trial has a fresh
	// solver).
	Delta flight.SolverStats `json:"delta"`
	// Difficulty scores the iteration's search effort (see Difficulty).
	Difficulty float64 `json:"difficulty"`
}

// Difficulty scores one iteration's solver work machine-independently:
// conflicts dominate (each is a full analyze/backjump cycle), and
// propagations add fine grain at 1/1024 weight so conflict-free but
// propagation-heavy iterations still register. Defined in DESIGN.md §3k;
// comparable across hosts because no wall time enters.
func Difficulty(d flight.SolverStats) float64 {
	return float64(d.Conflicts) + float64(d.Propagations)/1024
}

// Derive computes the offline attribution of a loaded bundle from its
// trace spans. It never fails: missing spans yield a single "other" stage
// covering the whole wall time, and an empty DIP transcript yields no DIP
// rows. Attach live telemetry (flight.ReadAnatomy) to Report.Search
// separately, or use FromDir which does both.
func Derive(b *flight.Bundle, spans []trace.SpanRecord) *Report {
	r := &Report{
		Dir:          b.Dir,
		Bundle:       b,
		TotalSeconds: b.Result.ElapsedSeconds,
	}
	for _, t := range b.Result.Trials {
		r.Solver = addStats(r.Solver, t.Solver)
	}
	if r.Solver.Propagations > 0 {
		r.XorShare = float64(r.Solver.XorPropagations) / float64(r.Solver.Propagations)
	}
	r.Stages = StageSplit(spans, r.TotalSeconds)

	// Per-DIP deltas: dips.jsonl snapshots are cumulative within a trial
	// (fresh solver per trial), so consecutive differences attribute the
	// growth to each iteration.
	prev := map[int]flight.SolverStats{}
	for _, d := range b.DIPs {
		delta := subStats(d.Solver, prev[d.Trial])
		prev[d.Trial] = d.Solver
		r.DIPs = append(r.DIPs, DIP{
			Trial:      d.Trial,
			Iteration:  d.Iteration,
			SolveMS:    d.SolveMS,
			Delta:      delta,
			Difficulty: Difficulty(delta),
		})
	}
	return r
}

// FromDir loads a bundle and derives its full report, merging the live
// anatomy.json telemetry when the bundle has one.
func FromDir(dir string) (*Report, error) {
	b, err := flight.Open(dir)
	if err != nil {
		return nil, err
	}
	spans, err := flight.ReadTrace(dir)
	if err != nil {
		return nil, err
	}
	r := Derive(b, spans)
	if r.Search, err = flight.ReadAnatomy(dir); err != nil {
		return nil, err
	}
	return r, nil
}

// Hardest returns the n highest-difficulty DIPs, hardest first (ties
// break on record order, so the result is deterministic). n < 0 selects
// none.
func (r *Report) Hardest(n int) []DIP {
	idx := make([]int, len(r.DIPs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return r.DIPs[idx[a]].Difficulty > r.DIPs[idx[b]].Difficulty
	})
	n = max(0, min(n, len(idx)))
	out := make([]DIP, n)
	for i := 0; i < n; i++ {
		out[i] = r.DIPs[idx[i]]
	}
	return out
}

// HottestStage returns the stage with the largest wall-time share
// (including "other"); the zero Stage when the report is empty.
func (r *Report) HottestStage() Stage {
	var hot Stage
	for _, s := range r.Stages {
		if s.Seconds > hot.Seconds {
			hot = s
		}
	}
	return hot
}

// StageSeconds returns the named stage's seconds (0 when absent).
func (r *Report) StageSeconds(name string) float64 {
	for _, s := range r.Stages {
		if s.Name == name {
			return s.Seconds
		}
	}
	return 0
}

// StageSplit aggregates spans into the Fig. 3 stage rows, in FigStages
// order, plus the exact "other" residual so the rows sum to total: each
// row sums its spans' calls, seconds and counters, and spans outside
// FigStages fold into "other". It is the one span-to-stage aggregation,
// for recorded bundles (Derive) and for a live run's collector alike.
func StageSplit(spans []trace.SpanRecord, total float64) []Stage {
	known := map[string]bool{}
	for _, name := range FigStages {
		known[name] = true
	}
	agg := map[string]*Stage{}
	for _, sp := range spans {
		name := sp.Name
		if !known[name] {
			name = "other"
		}
		s, ok := agg[name]
		if !ok {
			s = &Stage{Name: name, Counters: map[string]uint64{}}
			agg[name] = s
		}
		s.Calls++
		s.Seconds += sp.Duration.Seconds()
		for k, v := range sp.Counters {
			s.Counters[k] += v
		}
	}
	var out []Stage
	spanned := 0.0
	for _, name := range FigStages {
		if s, ok := agg[name]; ok {
			spanned += s.Seconds
			out = append(out, *s)
		}
	}
	other := Stage{Name: "other", Counters: map[string]uint64{}}
	if s, ok := agg["other"]; ok {
		other = *s
		spanned += s.Seconds
	}
	// The residual absorbs un-spanned time (lock build, fabrication,
	// recorder I/O); computing it by subtraction makes the rows sum to the
	// recorded wall time exactly.
	other.Seconds += total - spanned
	out = append(out, other)
	if total > 0 {
		for i := range out {
			out[i].Share = out[i].Seconds / total
		}
	}
	return out
}

func addStats(a, b flight.SolverStats) flight.SolverStats {
	return flight.SolverStats{
		Decisions:        a.Decisions + b.Decisions,
		Propagations:     a.Propagations + b.Propagations,
		Conflicts:        a.Conflicts + b.Conflicts,
		Restarts:         a.Restarts + b.Restarts,
		Learnt:           a.Learnt + b.Learnt,
		Removed:          a.Removed + b.Removed,
		XorPropagations:  a.XorPropagations + b.XorPropagations,
		XorConflicts:     a.XorConflicts + b.XorConflicts,
		SimplifyCalls:    a.SimplifyCalls + b.SimplifyCalls,
		SimplifyRemoved:  a.SimplifyRemoved + b.SimplifyRemoved,
		SimplifyStrength: a.SimplifyStrength + b.SimplifyStrength,
	}
}

// subStats differences cumulative snapshots; counters are monotone within
// a trial, so saturating subtraction only guards damaged inputs.
func subStats(cur, prev flight.SolverStats) flight.SolverStats {
	sub := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	return flight.SolverStats{
		Decisions:        sub(cur.Decisions, prev.Decisions),
		Propagations:     sub(cur.Propagations, prev.Propagations),
		Conflicts:        sub(cur.Conflicts, prev.Conflicts),
		Restarts:         sub(cur.Restarts, prev.Restarts),
		Learnt:           sub(cur.Learnt, prev.Learnt),
		Removed:          sub(cur.Removed, prev.Removed),
		XorPropagations:  sub(cur.XorPropagations, prev.XorPropagations),
		XorConflicts:     sub(cur.XorConflicts, prev.XorConflicts),
		SimplifyCalls:    sub(cur.SimplifyCalls, prev.SimplifyCalls),
		SimplifyRemoved:  sub(cur.SimplifyRemoved, prev.SimplifyRemoved),
		SimplifyStrength: sub(cur.SimplifyStrength, prev.SimplifyStrength),
	}
}
