package core

import (
	"context"
	"fmt"

	"dynunlock/internal/gf2"
	"dynunlock/internal/lfsr"
	"dynunlock/internal/lock"
	"dynunlock/internal/netlist"
	"dynunlock/internal/satattack"
	"dynunlock/internal/scan"
	"dynunlock/internal/trace"
)

// maskMatricesN computes the scan-in matrix A and the scan-out matrix B
// for a session with the given number of consecutive captures. A is
// capture-count independent; B's term cycles shift with extra captures, so
// stacking single- and multi-capture constraints can raise the total rank —
// the paper's "carry over the seed information recovered from previous
// capture cycles" refinement. Every mask row is the XOR of key-schedule
// rows, read from one unroll of the register (lfsr.Schedule); a Static
// register is the seed itself, so its key bit b is the unit row b.
func maskMatricesN(d *lock.Design, patIdx, captures int) (A, B *gf2.Mat, err error) {
	if captures < 1 {
		return nil, nil, fmt.Errorf("core: captures %d must be >= 1", captures)
	}
	if d.Nonlinear() {
		return nil, nil, fmt.Errorf("core: key register has nonlinear feedback; DynUnlock cannot model it (paper Sec. V)")
	}
	k := d.Config.KeyBits
	n := d.Chain.Length
	steps := func(cycle int) int { return d.Config.Policy.Steps(patIdx, cycle, d.Config.Period) }
	var sched *lfsr.Schedule
	if d.Config.Policy != scan.Static {
		maxSteps := 0
		for cycle := 0; cycle <= d.Chain.SessionCyclesN(captures); cycle++ {
			maxSteps = max(maxSteps, steps(cycle))
		}
		if sched, err = lfsr.Unroll(d.Config.Poly, maxSteps); err != nil {
			return nil, nil, err
		}
	}
	fill := func(row gf2.Vec, terms []scan.Term) {
		for _, t := range terms {
			if sched == nil {
				row.Flip(t.KeyBit)
			} else {
				row.Xor(sched.Row(steps(t.Cycle), t.KeyBit))
			}
		}
	}
	A, B = gf2.NewMat(n, k), gf2.NewMat(n, k)
	for j := 0; j < n; j++ {
		fill(A.Row(j), d.Chain.InMaskTerms(j))
		fill(B.Row(j), d.Chain.OutMaskTermsN(j, captures))
	}
	return A, B, nil
}

// MultiModel is the combinational model of a session with several
// consecutive capture cycles: the core function is unrolled once per
// capture.
type MultiModel struct {
	Design   *lock.Design
	PatIdx   int
	Captures int
	A, B     *gf2.Mat
	// Netlist inputs: pi(0)…pi(captures-1) blocks, then a, then the used
	// mask bits (mask-space form). Outputs: POs of each capture, then b.
	Netlist *netlist.Netlist
	Locked  *satattack.Locked
	uPos    []int
	vPos    []int
}

// BuildMaskModelN constructs the mask-space model for a multi-capture
// session.
func BuildMaskModelN(d *lock.Design, patIdx, captures int) (*MultiModel, error) {
	if patIdx < 0 {
		return nil, fmt.Errorf("core: negative pattern index")
	}
	A, B, err := maskMatricesN(d, patIdx, captures)
	if err != nil {
		return nil, err
	}
	n := d.Chain.Length
	src := d.View
	mm := &MultiModel{Design: d, PatIdx: patIdx, Captures: captures, A: A, B: B}

	m := netlist.New(fmt.Sprintf("%s-mask-model-x%d", d.Netlist.Name, captures))
	piIDs := make([][]netlist.SignalID, captures)
	for c := 0; c < captures; c++ {
		piIDs[c] = make([]netlist.SignalID, src.NumPI)
		for i := range piIDs[c] {
			piIDs[c][i], err = m.AddInput(fmt.Sprintf("pi%d_%d", c, i))
			if err != nil {
				return nil, err
			}
		}
	}
	aIDs := make([]netlist.SignalID, n)
	for j := range aIDs {
		aIDs[j], err = m.AddInput(fmt.Sprintf("a%d", j))
		if err != nil {
			return nil, err
		}
	}
	uIDs := make(map[int]netlist.SignalID)
	for j := 0; j < n; j++ {
		if !A.Row(j).IsZero() {
			id, err := m.AddInput(fmt.Sprintf("u%d", j))
			if err != nil {
				return nil, err
			}
			uIDs[j] = id
			mm.uPos = append(mm.uPos, j)
		}
	}
	vIDs := make(map[int]netlist.SignalID)
	for j := 0; j < n; j++ {
		if !B.Row(j).IsZero() {
			id, err := m.AddInput(fmt.Sprintf("v%d", j))
			if err != nil {
				return nil, err
			}
			vIDs[j] = id
			mm.vPos = append(mm.vPos, j)
		}
	}

	state := make([]netlist.SignalID, n)
	for j := 0; j < n; j++ {
		if id, ok := uIDs[j]; ok {
			ap, err := m.AddGate(fmt.Sprintf("ap%d", j), netlist.Xor, aIDs[j], id)
			if err != nil {
				return nil, err
			}
			state[j] = ap
		} else {
			state[j] = aIDs[j]
		}
	}
	for c := 0; c < captures; c++ {
		coreIn := make([]netlist.SignalID, len(src.Inputs))
		copy(coreIn, piIDs[c])
		copy(coreIn[src.NumPI:], state)
		coreOut, err := appendComb(m, src, coreIn)
		if err != nil {
			return nil, err
		}
		for _, po := range coreOut[:src.NumPO] {
			m.MarkOutput(po)
		}
		copy(state, coreOut[src.NumPO:])
	}
	for j := 0; j < n; j++ {
		if id, ok := vIDs[j]; ok {
			b, err := m.AddGate(fmt.Sprintf("b%d", j), netlist.Xor, state[j], id)
			if err != nil {
				return nil, err
			}
			m.MarkOutput(b)
		} else {
			m.MarkOutput(state[j])
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: multi-capture model invalid: %w", err)
	}
	view, err := netlist.NewCombView(m)
	if err != nil {
		return nil, err
	}
	nonKey := captures*src.NumPI + n
	locked := satattack.NewLocked(view, func(i int, _ netlist.SignalID) bool { return i >= nonKey })
	if err := locked.Validate(); err != nil {
		return nil, err
	}
	mm.Netlist = m
	mm.Locked = locked
	return mm, nil
}

// MaskVector expands a SAT key assignment into the full (u‖v) vector.
func (mm *MultiModel) MaskVector(key []bool) gf2.Vec {
	n := mm.Design.Chain.Length
	uv := gf2.NewVec(2 * n)
	for i, j := range mm.uPos {
		uv.Set(j, key[i])
	}
	for i, j := range mm.vPos {
		uv.Set(n+j, key[len(mm.uPos)+i])
	}
	return uv
}

// multiChipOracle adapts multi-capture sessions to the model's interface.
type multiChipOracle struct {
	chip     Chip
	testKey  []bool
	captures int
	sessions int
}

// Query implements satattack.Oracle for the multi-capture model: the input
// is captures PI blocks followed by the scan-in vector.
func (o *multiChipOracle) Query(in []bool) []bool {
	d := o.chip.Design()
	numPI := d.View.NumPI
	pis := make([][]bool, o.captures)
	for c := 0; c < o.captures; c++ {
		pis[c] = in[c*numPI : (c+1)*numPI]
	}
	a := in[o.captures*numPI:]
	o.chip.Reset()
	scanOut, pos := o.chip.SessionN(o.testKey, a, pis)
	o.sessions++
	var out []bool
	for _, po := range pos {
		out = append(out, po...)
	}
	return append(out, scanOut...)
}

// AttackMulti runs the DynUnlock attack with a multi-capture session model:
// every DIP is one session with captures capture cycles, and the seed
// candidates are the seeds whose masks under that session's [A;B]
// reproduce a recovered mask. It does not combine them with the
// single-capture masks; a caller that intersects its candidates with
// Attack's gets the stacked rank of both, which prunes rank-deficient
// cases as the paper's "second capture" refinement describes. AttackMulti
// is AttackMultiCtx under context.Background().
func AttackMulti(chip Chip, captures int, opts Options) (*Result, error) {
	return AttackMultiCtx(context.Background(), chip, captures, opts)
}

// AttackMultiCtx is AttackMulti with cancellation and tracing, with the
// same partial-result semantics as AttackCtx. It honours every engine
// option AttackCtx does except Insight: the tracker's rows address the
// single-capture mask space, so Options.Insight is ignored here. Like
// AttackCtx it verifies the candidates on VerifyProbes probe sessions,
// each with the attack's own capture count.
func AttackMultiCtx(ctx context.Context, chip Chip, captures int, opts Options) (*Result, error) {
	if captures < 2 {
		return AttackCtx(ctx, chip, opts)
	}
	tr := trace.From(ctx)
	d := chip.Design()
	if opts.EnumerateLimit == 0 {
		opts.EnumerateLimit = 256
	}
	if opts.VerifyProbes == 0 {
		opts.VerifyProbes = 8
	}
	unroll := tr.Start("unroll")
	mm, err := BuildMaskModelN(d, 0, captures)
	if err != nil {
		unroll.End()
		return nil, err
	}
	unroll.Add("captures", uint64(captures))
	unroll.Add("key_bits", uint64(d.Config.KeyBits))
	unroll.End()
	if opts.TestKey == nil {
		opts.TestKey = make([]bool, d.Config.KeyBits)
	}
	adapter := &multiChipOracle{chip: chip, testKey: opts.TestKey, captures: captures}
	res := &Result{Mode: ModeLinear}
	saRes, err := runEngine(ctx, mm.Locked, adapter, opts, nil, res)
	if err != nil {
		return nil, err
	}
	res.Queries = adapter.sessions
	stacked := gf2.VStack(mm.A, mm.B)
	res.Rank = gf2.Rank(stacked)
	res.PredictedLog2 = d.Config.KeyBits - res.Rank

	masks := saRes.Candidates
	if len(masks) == 0 && saRes.Key != nil {
		masks = [][]bool{saRes.Key}
	}
	refine := tr.Start("refine")
	members := make([]gf2.Vec, len(masks))
	for i, mk := range masks {
		members[i] = mm.MaskVector(mk)
	}
	single := &MaskModel{Design: d, A: mm.A, B: mm.B}
	seeds := single.SeedsForMaskCoset(members, opts.EnumerateLimit+1)
	if len(seeds) > opts.EnumerateLimit {
		seeds = seeds[:opts.EnumerateLimit]
		res.Exact = false
	}
	res.SeedCandidates = seeds
	refine.Add("mask_candidates", uint64(len(masks)))
	refine.Add("seed_candidates", uint64(len(seeds)))
	refine.End()
	if res.Verified, err = verifyCandidates(tr, chip, opts.TestKey, seeds, opts.VerifyProbes, captures, mm.A, mm.B); err != nil {
		return nil, err
	}
	return res, nil
}
