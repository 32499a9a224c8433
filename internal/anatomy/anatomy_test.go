package anatomy

import (
	"math"
	"testing"
	"time"

	"dynunlock/internal/flight"
	"dynunlock/internal/trace"
)

const committedBundle = "../../bench/bundles/table2/table2_s5378"

// TestDeriveCommittedBundleInvariants pins the acceptance invariants of
// the attribution layer on a committed bundle: the stage rows sum exactly
// to the recorded wall time, the solver counter totals equal the sum of
// result.json's per-trial counters, and the search telemetry is the
// run's own closing sample.
func TestDeriveCommittedBundleInvariants(t *testing.T) {
	r, err := FromDir(committedBundle)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalSeconds <= 0 {
		t.Fatalf("committed bundle reports %v total seconds", r.TotalSeconds)
	}
	var sum float64
	for _, s := range r.Stages {
		sum += s.Seconds
	}
	if math.Abs(sum-r.TotalSeconds) > 1e-9 {
		t.Errorf("stage seconds sum %v, want recorded wall time %v", sum, r.TotalSeconds)
	}
	if last := r.Stages[len(r.Stages)-1]; last.Name != "other" {
		t.Errorf("last stage is %q, want the trailing \"other\" residual", last.Name)
	}

	b, err := flight.Open(committedBundle)
	if err != nil {
		t.Fatal(err)
	}
	var want flight.SolverStats
	for _, tr := range b.Result.Trials {
		want = addStats(want, tr.Solver)
	}
	if r.Solver != want {
		t.Errorf("report solver totals %+v, want result.json sum %+v", r.Solver, want)
	}

	// dips.jsonl snapshots are cumulative per trial: the summed deltas must
	// reproduce each trial's last snapshot, and never exceed the trial total
	// (extraction/enumeration work lands after the last DIP).
	lastSnap := map[int]flight.SolverStats{}
	for _, d := range b.DIPs {
		lastSnap[d.Trial] = d.Solver
	}
	deltaSum := map[int]flight.SolverStats{}
	for _, d := range r.DIPs {
		deltaSum[d.Trial] = addStats(deltaSum[d.Trial], d.Delta)
	}
	for trial, snap := range lastSnap {
		if deltaSum[trial] != snap {
			t.Errorf("trial %d: DIP deltas sum to %+v, want last snapshot %+v", trial, deltaSum[trial], snap)
		}
	}
	if len(r.DIPs) != len(b.DIPs) {
		t.Errorf("report has %d DIP rows, bundle transcript has %d", len(r.DIPs), len(b.DIPs))
	}

	// The search telemetry is the closing metrics sample's: it counted the
	// run's own conflicts, and its LBD buckets sum to its sample count.
	if r.Search == nil {
		t.Fatal("committed bundle has no sampled LBD distribution")
	}
	if uint64(r.Search.Conflicts) != r.Solver.Conflicts {
		t.Errorf("closing sample counted %v conflicts, result.json %d", r.Search.Conflicts, r.Solver.Conflicts)
	}
	var n uint64
	for _, c := range r.Search.LBDCounts {
		n += c
	}
	if n == 0 || n != r.Search.LBDSamples {
		t.Errorf("LBD buckets sum to %d, lbd_samples %d", n, r.Search.LBDSamples)
	}
}

// TestStageSplitResidual checks the exact-residual construction on a
// synthetic span set: known Fig. 3 spans keep their time, unknown spans fold
// into "other", and "other" additionally absorbs the un-spanned remainder.
func TestStageSplitResidual(t *testing.T) {
	spans := []trace.SpanRecord{
		{Name: "encode", Duration: secs(0.25)},
		{Name: "dip_loop", Duration: secs(1.5)},
		{Name: "encode", Duration: secs(0.25)},
		{Name: "fabricate", Duration: secs(0.1)}, // not a Fig. 3 stage
	}
	stages := StageSplit(spans, 3.0)
	bySec := map[string]float64{}
	byCalls := map[string]int{}
	var sum float64
	for _, s := range stages {
		bySec[s.Name] = s.Seconds
		byCalls[s.Name] = s.Calls
		sum += s.Seconds
	}
	if math.Abs(sum-3.0) > 1e-12 {
		t.Errorf("stages sum to %v, want 3.0", sum)
	}
	if math.Abs(bySec["encode"]-0.5) > 1e-12 || byCalls["encode"] != 2 {
		t.Errorf("encode = %vs over %d calls, want 0.5s over 2", bySec["encode"], byCalls["encode"])
	}
	// other = 0.1s spanned (fabricate) + 0.9s un-spanned residual.
	if math.Abs(bySec["other"]-1.0) > 1e-12 {
		t.Errorf("other = %vs, want 1.0 (0.1 folded + 0.9 residual)", bySec["other"])
	}
	if stages[len(stages)-1].Name != "other" {
		t.Errorf("other is not the last stage: %+v", stages)
	}
}

// TestCompareNamesSeededRegression seeds a known regression between two
// synthetic reports and checks Compare attributes it: the stage with the
// largest absolute wall-time growth and the counter with the largest
// relative growth are named.
func TestCompareNamesSeededRegression(t *testing.T) {
	a := &Report{
		TotalSeconds: 2,
		Stages: []Stage{
			{Name: "encode", Seconds: 0.5},
			{Name: "dip_loop", Seconds: 1.0},
			{Name: "other", Seconds: 0.5},
		},
		Solver: flight.SolverStats{Conflicts: 100, Propagations: 1000, Restarts: 2},
	}
	b := &Report{
		TotalSeconds: 4,
		Stages: []Stage{
			{Name: "encode", Seconds: 0.4}, // improved
			{Name: "dip_loop", Seconds: 3.0},
			{Name: "other", Seconds: 0.6},
		},
		Solver: flight.SolverStats{Conflicts: 150, Propagations: 8000, Restarts: 2},
	}
	d := Compare(a, b)
	if d.RegressedStage != "dip_loop" {
		t.Errorf("regressed stage %q, want dip_loop", d.RegressedStage)
	}
	if math.Abs(d.RegressedStageSeconds-2.0) > 1e-12 {
		t.Errorf("regressed stage growth %v, want 2.0", d.RegressedStageSeconds)
	}
	if d.RegressedCounter != "propagations" {
		t.Errorf("regressed counter %q, want propagations (8x vs conflicts 1.5x)", d.RegressedCounter)
	}
	if d.RegressedCounterRatio != 8 {
		t.Errorf("regressed counter ratio %v, want 8", d.RegressedCounterRatio)
	}

	// The reverse comparison is an improvement in dip_loop but a regression
	// in encode — the only stage that grew.
	rev := Compare(b, a)
	if rev.RegressedStage != "encode" {
		t.Errorf("reverse regressed stage %q, want encode", rev.RegressedStage)
	}
	if rev.RegressedCounter != "" {
		t.Errorf("reverse regressed counter %q, want none (nothing grew)", rev.RegressedCounter)
	}

	// Identical reports regress nothing.
	same := Compare(a, a)
	if same.RegressedStage != "" || same.RegressedCounter != "" {
		t.Errorf("self-comparison regressed %q / %q, want neither", same.RegressedStage, same.RegressedCounter)
	}
}

// TestCompareCounterFromZero pins the B-when-A-is-zero ratio convention:
// a series appearing from nothing (e.g. XOR propagations after switching
// encodings) ranks by its absolute value.
func TestCompareCounterFromZero(t *testing.T) {
	a := &Report{Solver: flight.SolverStats{Conflicts: 100}}
	b := &Report{Solver: flight.SolverStats{Conflicts: 100, XorPropagations: 5000}}
	d := Compare(a, b)
	if d.RegressedCounter != "xor_propagations" || d.RegressedCounterRatio != 5000 {
		t.Errorf("got %q ratio %v, want xor_propagations ratio 5000 (B when A==0)",
			d.RegressedCounter, d.RegressedCounterRatio)
	}
}

// TestHardestDeterministic checks the top-N selection is stable: ordered by
// difficulty descending with ties kept in record order, and clamped to
// [0, len(DIPs)].
func TestHardestDeterministic(t *testing.T) {
	r := &Report{DIPs: []DIP{
		{Trial: 1, Iteration: 1, Difficulty: 5},
		{Trial: 1, Iteration: 2, Difficulty: 9},
		{Trial: 2, Iteration: 1, Difficulty: 9},
		{Trial: 2, Iteration: 2, Difficulty: 1},
	}}
	got := r.Hardest(3)
	if len(got) != 3 {
		t.Fatalf("Hardest(3) returned %d rows", len(got))
	}
	// The two 9s tie: record order keeps trial 1 first.
	if got[0].Trial != 1 || got[0].Iteration != 2 || got[1].Trial != 2 || got[1].Iteration != 1 {
		t.Errorf("tie broken out of record order: %+v", got[:2])
	}
	if got[2].Difficulty != 5 {
		t.Errorf("third row difficulty %v, want 5", got[2].Difficulty)
	}
	if over := r.Hardest(10); len(over) != 4 {
		t.Errorf("Hardest(10) returned %d rows, want all 4", len(over))
	}
	if none := r.Hardest(-1); len(none) != 0 {
		t.Errorf("Hardest(-1) returned %d rows, want none", len(none))
	}
}

// TestDifficultyWeighting pins the score definition from DESIGN.md §3k.
func TestDifficultyWeighting(t *testing.T) {
	d := Difficulty(flight.SolverStats{Conflicts: 10, Propagations: 2048})
	if d != 12 {
		t.Errorf("Difficulty(10 conflicts, 2048 props) = %v, want 12", d)
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
