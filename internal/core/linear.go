package core

import (
	"fmt"

	"dynunlock/internal/gf2"
	"dynunlock/internal/lock"
	"dynunlock/internal/netlist"
	"dynunlock/internal/satattack"
)

// Mode selects how the seed search space is presented to the SAT engine.
type Mode int8

// Attack modes.
const (
	// ModeLinear (default) runs the SAT attack over the mask space
	// (u, v) = (A·s, B·s) — structurally the static-obfuscation model of
	// ScanSAT — and then back-solves the LFSR seed(s) with Gaussian
	// elimination. This hoists the linear reasoning that the paper's
	// lingeling performs by clause resolution ("the SAT attack sometimes
	// resolves only these [LFSR] clauses", Sec. IV) into explicit GF(2)
	// algebra, which plain CDCL cannot do efficiently. The recovered
	// candidate set is provably identical to ModeDirect's: s is consistent
	// with the oracle iff (A·s, B·s) lies in the recovered mask class.
	ModeLinear Mode = iota
	// ModeDirect feeds the seed-parameterized circuit (Fig. 4) to the SAT
	// attack exactly as the paper describes. Faithful but embeds a dense
	// GF(2) system in CNF, which is resolution-hard: practical only for
	// small key sizes with this repository's from-scratch CDCL solver.
	ModeDirect
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeLinear:
		return "linear"
	case ModeDirect:
		return "direct"
	default:
		return fmt.Sprintf("Mode(%d)", int8(m))
	}
}

// MaskModel is the mask-space combinational model of a session with one
// or more consecutive capture cycles: the key inputs are the structurally
// used mask bits of (u, v) = (A·s, B·s) rather than the k seed bits, and
// the combinational core is unrolled once per capture. Mask bits whose
// rows are zero (flops before the first key gate on the way in, after the
// last on the way out) are hard-wired to zero and excluded from the key
// space.
type MaskModel struct {
	Design   *lock.Design
	PatIdx   int
	Captures int
	A, B     *gf2.Mat
	// UPos and VPos list the flop indices whose u (resp. v) mask bit is a
	// key input, in key-vector order: the key vector is
	// u[UPos[0]], …, u[UPos[last]], v[VPos[0]], …, v[VPos[last]].
	UPos, VPos []int
	// Netlist inputs: one PI block per capture, a0…a(n-1), then the used
	// mask bits. Outputs: the POs of each capture, then b0…b(n-1).
	Netlist *netlist.Netlist
	Locked  *satattack.Locked
}

// BuildMaskModel constructs the mask-space model for a session with the
// given number of capture cycles.
func BuildMaskModel(d *lock.Design, patIdx, captures int) (*MaskModel, error) {
	if patIdx < 0 {
		return nil, fmt.Errorf("core: negative pattern index")
	}
	A, B, err := maskMatricesN(d, patIdx, captures)
	if err != nil {
		return nil, err
	}
	n := d.Chain.Length
	src := d.View
	mm := &MaskModel{Design: d, PatIdx: patIdx, Captures: captures, A: A, B: B}

	m := netlist.New(fmt.Sprintf("%s-mask-model-x%d", d.Netlist.Name, captures))
	piIDs := make([][]netlist.SignalID, captures)
	for c := range piIDs {
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
			mm.UPos = append(mm.UPos, j)
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
			mm.VPos = append(mm.VPos, j)
		}
	}

	// state is the chain's content: a' after scan-in, then the captured
	// next state after each capture.
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
		return nil, fmt.Errorf("core: mask model invalid: %w", err)
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

// MaskVector expands a SAT key assignment (ordered per UPos then VPos) into
// the full 2n-bit (u‖v) vector with structural zeros filled in.
func (mm *MaskModel) MaskVector(key []bool) gf2.Vec {
	n := mm.Design.Chain.Length
	if len(key) != len(mm.UPos)+len(mm.VPos) {
		panic(fmt.Sprintf("core: mask key length %d, want %d", len(key), len(mm.UPos)+len(mm.VPos)))
	}
	uv := gf2.NewVec(2 * n)
	for i, j := range mm.UPos {
		uv.Set(j, key[i])
	}
	for i, j := range mm.VPos {
		uv.Set(n+j, key[len(mm.UPos)+i])
	}
	return uv
}

// SeedsForMaskCoset recovers every seed whose mask lies in the coset
// spanned by the recovered mask-class members: the class of functionally
// equivalent masks is always m0 ⊕ V for a linear subspace V (mask
// differences compose under XOR), so the seeds solve the augmented system
//
//	[A;B]·s ⊕ F·t = m0
//
// where F is an echelon basis of the observed member differences. If the
// member list is the complete class (exact enumeration), the result is the
// complete seed-candidate set; a partial member list yields a sound subset.
func (mm *MaskModel) SeedsForMaskCoset(members []gf2.Vec, limit int) []gf2.Vec {
	if len(members) == 0 {
		return nil
	}
	m0 := members[0]
	// Basis of the difference space V: row-reduce the member differences.
	diffs := gf2.NewMat(0, m0.Len())
	for _, m := range members[1:] {
		diffs.AppendRow(m.XorInto(m0))
	}
	var basis []gf2.Vec
	if diffs.Rows() > 0 {
		ech := gf2.Reduce(diffs)
		for i := 0; i < ech.Rank(); i++ {
			basis = append(basis, ech.R.Row(i))
		}
	}
	// Augmented system: columns of [A;B] for s, columns of basis for t.
	k := mm.Design.Config.KeyBits
	rows := 2 * mm.Design.Chain.Length
	aug := gf2.NewMat(rows, k+len(basis))
	for r := 0; r < mm.Design.Chain.Length; r++ {
		for _, c := range mm.A.Row(r).Ones() {
			aug.Set(r, c, true)
		}
		for _, c := range mm.B.Row(r).Ones() {
			aug.Set(mm.Design.Chain.Length+r, c, true)
		}
	}
	for ti, b := range basis {
		for _, r := range b.Ones() {
			aug.Set(r, k+ti, true)
		}
	}
	sols, ok := gf2.EnumerateSolutions(aug, m0, limit)
	if !ok {
		return nil
	}
	// Project to s and dedupe (distinct (s,t) pairs can share s only if F
	// had dependent columns, which the echelon construction rules out; the
	// dedupe guards against future basis changes).
	seen := make(map[string]bool, len(sols))
	var seeds []gf2.Vec
	for _, st := range sols {
		s := gf2.NewVec(k)
		for _, one := range st.Ones() {
			if one < k {
				s.Set(one, true)
			}
		}
		if key := s.String(); !seen[key] {
			seen[key] = true
			seeds = append(seeds, s)
		}
	}
	return seeds
}
