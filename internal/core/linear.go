package core

import (
	"fmt"

	"dynunlock/internal/aig"
	"dynunlock/internal/gf2"
	"dynunlock/internal/lock"
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
	// Locked is the model's graph with its key inputs marked. Graph
	// inputs: one PI block per capture, a0…a(n-1), then the used mask
	// bits. Outputs: the POs of each capture, then b0…b(n-1).
	Locked *satattack.Locked
}

// BuildMaskModel constructs the mask-space model for a session with the
// given number of capture cycles, straight into an and-inverter graph:
// a' = a ⊕ u, then the design's core once per capture, then b = state ⊕ v.
// Like a compile of the model as one netlist, it adds only the logic an
// output depends on: a ⊕ u for the flops the first capture's core reads,
// and in each capture before the last, the next states the following
// capture reads.
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
	for j := 0; j < n; j++ {
		if !A.Row(j).IsZero() {
			mm.UPos = append(mm.UPos, j)
		}
		if !B.Row(j).IsZero() {
			mm.VPos = append(mm.VPos, j)
		}
	}

	// cones[c] is what capture c computes: every output in the last
	// capture, and before it the POs and the next states that capture c+1
	// reads.
	cones := make([][]bool, captures)
	var want []bool
	for c := captures - 1; c >= 0; c-- {
		cones[c] = aig.Cone(src, want)
		if c == 0 {
			break
		}
		if want == nil {
			want = make([]bool, len(src.Outputs))
			for i := 0; i < src.NumPO; i++ {
				want[i] = true
			}
		}
		for j := 0; j < n; j++ {
			want[src.NumPO+j] = cones[c][src.Inputs[src.NumPI+j]]
		}
	}

	nonKey := captures*src.NumPI + n
	g := aig.New(nonKey + len(mm.UPos) + len(mm.VPos))
	// in is the core's input edges for one capture; state, its tail, is
	// the chain's content: a' after scan-in, then each capture's next state.
	in := make([]aig.Lit, len(src.Inputs))
	state := in[src.NumPI:]
	key := nonKey
	for j := 0; j < n; j++ {
		masked := !A.Row(j).IsZero()
		if cones[0][src.Inputs[src.NumPI+j]] {
			state[j] = g.Input(captures*src.NumPI + j)
			if masked {
				state[j] = g.Xor(state[j], g.Input(key))
			}
		}
		if masked {
			key++
		}
	}
	for c := 0; c < captures; c++ {
		for i := 0; i < src.NumPI; i++ {
			in[i] = g.Input(c*src.NumPI + i)
		}
		out, err := g.Compile(src, cones[c], in)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		for _, po := range out[:src.NumPO] {
			g.AddOutput(po)
		}
		copy(state, out[src.NumPO:])
	}
	for j := 0; j < n; j++ {
		b := state[j]
		if !B.Row(j).IsZero() {
			b = g.Xor(b, g.Input(key))
			key++
		}
		g.AddOutput(b)
	}

	mm.Locked = &satattack.Locked{Graph: g}
	for i := 0; i < g.NumInputs(); i++ {
		if i < nonKey {
			mm.Locked.InIdx = append(mm.Locked.InIdx, i)
		} else {
			mm.Locked.KeyIdx = append(mm.Locked.KeyIdx, i)
		}
	}
	if err := mm.Locked.Validate(); err != nil {
		return nil, err
	}
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
