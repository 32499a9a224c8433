// Package anatomy is the attack's attribution layer: it turns a recorded
// run into a structured breakdown of where the attack spent its effort —
// wall time split across the Fig. 3 stages, per-DIP solver counter deltas
// and difficulty scores, XOR-vs-CNF propagation share, and the sampled
// learnt-clause LBD distribution.
//
// Everything is derived offline from the bundle (Derive/FromDir): trace
// spans give the stage split, consecutive dips.jsonl solver snapshots
// difference into per-DIP deltas, result.json anchors the wall time and
// counter totals, and the closing metrics sample in trace.jsonl carries
// the LBD distribution the solver hook filled.
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

// SubStages maps the spans that run inside a Fig. 3 stage to that stage:
// the uniqueness check ("unique") runs inside the DIP loop. Their time is
// already part of the parent's, so StageSplit reports them as the
// parent's sub-rows and neither sums them into the rows nor folds them
// into "other".
var SubStages = map[string]string{"unique": "dip_loop"}

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
	// Search is the search telemetry of the run's closing metrics sample
	// (the sampled learnt-clause LBD distribution over every trial); nil
	// when the trace holds no sample with an LBD series.
	Search *flight.Sample `json:"search,omitempty"`
}

// Stage is one row of the wall-time split.
type Stage struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// Share is the fraction of TotalSeconds (0 when TotalSeconds is 0).
	Share    float64           `json:"share"`
	Calls    int               `json:"calls"`
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Sub lists the stage's nested spans (SubStages) as rows of their
	// own; their seconds are part of this stage's, not added to the total.
	Sub []Stage `json:"sub,omitempty"`
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
// trace (nil reads as an empty one). It never fails: missing spans yield a
// single "other" stage covering the whole wall time, an empty DIP
// transcript yields no DIP rows, and a trace without a sampled LBD series
// leaves Search nil.
func Derive(b *flight.Bundle, tr *flight.Trace) *Report {
	r := &Report{
		Dir:          b.Dir,
		Bundle:       b,
		TotalSeconds: b.Result.ElapsedSeconds,
	}
	var spans []trace.SpanRecord
	if tr != nil {
		spans = tr.Spans
		if c := tr.Closing; c != nil && len(c.LBDCounts) > 0 {
			r.Search = c
		}
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

// FromDir loads a bundle and its trace and derives the full report.
func FromDir(dir string) (*Report, error) {
	b, err := flight.Open(dir)
	if err != nil {
		return nil, err
	}
	tr, err := flight.ReadTrace(dir)
	if err != nil {
		return nil, err
	}
	return Derive(b, tr), nil
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
// FigStages fold into "other". A SubStages span becomes a sub-row of its
// parent's row (and is dropped when the parent never ended). It is the
// one span-to-stage aggregation, for recorded bundles (Derive) and for a
// live run's collector alike.
func StageSplit(spans []trace.SpanRecord, total float64) []Stage {
	known := map[string]bool{}
	for _, name := range FigStages {
		known[name] = true
	}
	agg := map[string]*Stage{}
	sub := map[string]*Stage{}
	for _, sp := range spans {
		name, into := sp.Name, agg
		switch {
		case SubStages[name] != "":
			into = sub
		case !known[name]:
			name = "other"
		}
		s, ok := into[name]
		if !ok {
			s = &Stage{Name: name, Counters: map[string]uint64{}}
			into[name] = s
		}
		s.Calls++
		s.Seconds += sp.Duration.Seconds()
		for k, v := range sp.Counters {
			s.Counters[k] += v
		}
	}
	subNames := make([]string, 0, len(sub))
	for name := range sub {
		subNames = append(subNames, name)
	}
	sort.Strings(subNames)
	var out []Stage
	spanned := 0.0
	for _, name := range FigStages {
		if s, ok := agg[name]; ok {
			spanned += s.Seconds
			for _, sn := range subNames {
				if SubStages[sn] == name {
					s.Sub = append(s.Sub, *sub[sn])
				}
			}
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
			for j := range out[i].Sub {
				out[i].Sub[j].Share = out[i].Sub[j].Seconds / total
			}
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
