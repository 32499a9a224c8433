// Package core implements the DynUnlock attack (paper Sec. III).
//
// The attack turns a dynamically scan-locked sequential circuit into a
// combinational locked circuit whose key inputs are the PRNG seed bits
// (Algorithm 1 / Fig. 4):
//
//	a'  =  a  ⊕  A·s        (scan-in masks)
//	(b', po) = C(a', pi)    (one capture of the combinational core)
//	b   =  b' ⊕  B·s        (scan-out masks)
//
// where s is the seed, and A, B are GF(2) matrices obtained by unrolling
// the LFSR across the scan session's clock cycles. The model is exact: the
// oracle chip's cycle-accurate simulation and this closed form agree bit
// for bit (tested in this package and in internal/oracle).
//
// The modeled circuit is then handed to the classic SAT attack
// (internal/satattack); every distinguishing input is applied to the real
// chip through the obfuscated scan chain, and on convergence the surviving
// seed assignments are enumerated. The linear-algebraic structure also
// yields an analytic prediction: the number of indistinguishable seeds is
// 2^(k − rank[A;B]), which the experiments cross-check against the SAT
// enumeration.
package core

import (
	"fmt"

	"dynunlock/internal/gf2"
	"dynunlock/internal/lfsr"
	"dynunlock/internal/lock"
	"dynunlock/internal/netlist"
	"dynunlock/internal/satattack"
	"dynunlock/internal/scan"
)

// Model is the combinational locked model of a scan-locked design.
type Model struct {
	// Design is the locked design being modeled.
	Design *lock.Design
	// PatIdx is the pattern index modeled (0 unless studying PerPattern
	// epochs beyond the first).
	PatIdx int
	// A and B are the scan-in and scan-out seed-mask matrices (n×k).
	A, B *gf2.Mat
	// Netlist is the combinational model circuit. Inputs are ordered:
	// original PIs, chain bits a0…a(n-1), seed bits s0…s(k-1). Outputs are
	// ordered: original POs, observed scan-out b0…b(n-1).
	Netlist *netlist.Netlist
	// Locked is the model packaged for the SAT attack: seed bits are the
	// key inputs.
	Locked *satattack.Locked
}

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
	var terms []scan.Term
	for j := 0; j < n; j++ {
		terms = d.Chain.AppendInMaskTerms(terms[:0], j)
		fill(A.Row(j), terms)
		terms = d.Chain.AppendOutMaskTerms(terms[:0], j, captures)
		fill(B.Row(j), terms)
	}
	return A, B, nil
}

// BuildModel constructs the combinational locked model for one capture
// session of the design (Algorithm 1).
func BuildModel(d *lock.Design, patIdx int) (*Model, error) {
	if patIdx < 0 {
		return nil, fmt.Errorf("core: negative pattern index")
	}
	A, B, err := maskMatricesN(d, patIdx, 1)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	n := d.Chain.Length
	k := d.Config.KeyBits
	src := d.View

	m := netlist.New(fmt.Sprintf("%s-dynunlock-model", d.Netlist.Name))
	piIDs := make([]netlist.SignalID, src.NumPI)
	for i := range piIDs {
		id, err := m.AddInput(fmt.Sprintf("pi%d", i))
		if err != nil {
			return nil, err
		}
		piIDs[i] = id
	}
	aIDs := make([]netlist.SignalID, n)
	for j := range aIDs {
		id, err := m.AddInput(fmt.Sprintf("a%d", j))
		if err != nil {
			return nil, err
		}
		aIDs[j] = id
	}
	sIDs := make([]netlist.SignalID, k)
	for b := range sIDs {
		id, err := m.AddInput(fmt.Sprintf("s%d", b))
		if err != nil {
			return nil, err
		}
		sIDs[b] = id
	}

	// maskXor builds (XOR of seed bits in row) ⊕ base. The seed sub-chain
	// is built first so that CNF structural hashing shares it across the
	// per-DIP constraint copies, where `base` is a constant.
	maskXor := func(name string, row gf2.Vec, base netlist.SignalID) (netlist.SignalID, error) {
		ones := row.Ones()
		if len(ones) == 0 {
			return base, nil
		}
		acc := sIDs[ones[0]]
		for _, b := range ones[1:] {
			id, err := m.AddGate("", netlist.Xor, acc, sIDs[b])
			if err != nil {
				return 0, err
			}
			acc = id
		}
		return m.AddGate(name, netlist.Xor, acc, base)
	}

	aPrime := make([]netlist.SignalID, n)
	for j := 0; j < n; j++ {
		id, err := maskXor(fmt.Sprintf("ap%d", j), A.Row(j), aIDs[j])
		if err != nil {
			return nil, err
		}
		aPrime[j] = id
	}

	// Instantiate the combinational core with PIs mapped to pi and present
	// state mapped to a'.
	coreIn := make([]netlist.SignalID, len(src.Inputs))
	copy(coreIn, piIDs)
	copy(coreIn[src.NumPI:], aPrime)
	coreOut, err := appendComb(m, src, coreIn)
	if err != nil {
		return nil, err
	}
	poIDs := coreOut[:src.NumPO]
	bPrime := coreOut[src.NumPO:]

	for _, po := range poIDs {
		m.MarkOutput(po)
	}
	for j := 0; j < n; j++ {
		id, err := maskXor(fmt.Sprintf("b%d", j), B.Row(j), bPrime[j])
		if err != nil {
			return nil, err
		}
		m.MarkOutput(id)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: model netlist invalid: %w", err)
	}
	view, err := netlist.NewCombView(m)
	if err != nil {
		return nil, err
	}
	nonKey := src.NumPI + n
	locked, err := satattack.NewLocked(view, func(i int, _ netlist.SignalID) bool { return i >= nonKey })
	if err != nil {
		return nil, err
	}
	return &Model{Design: d, PatIdx: patIdx, A: A, B: B, Netlist: m, Locked: locked}, nil
}

// appendComb clones the combinational logic of src into dst, substituting
// inMap[i] for src.Inputs[i]. It returns the dst signals corresponding to
// src.Outputs.
func appendComb(dst *netlist.Netlist, src *netlist.CombView, inMap []netlist.SignalID) ([]netlist.SignalID, error) {
	if len(inMap) != len(src.Inputs) {
		return nil, fmt.Errorf("core: input map length %d, want %d", len(inMap), len(src.Inputs))
	}
	n := src.N
	sub := make([]netlist.SignalID, n.NumSignals())
	have := make([]bool, n.NumSignals())
	for i, s := range src.Inputs {
		sub[s] = inMap[i]
		have[s] = true
	}
	for id := 0; id < n.NumSignals(); id++ {
		sid := netlist.SignalID(id)
		switch n.Type(sid) {
		case netlist.Const0, netlist.Const1:
			c, err := dst.AddConst("", n.Type(sid) == netlist.Const1)
			if err != nil {
				return nil, err
			}
			sub[sid] = c
			have[sid] = true
		}
	}
	for _, id := range src.Order {
		g := n.Gate(id)
		fan := make([]netlist.SignalID, len(g.Fanin))
		for i, f := range g.Fanin {
			if !have[f] {
				return nil, fmt.Errorf("core: signal %q used before mapped", n.SignalName(f))
			}
			fan[i] = sub[f]
		}
		nid, err := dst.AddGate("", g.Type, fan...)
		if err != nil {
			return nil, err
		}
		sub[id] = nid
		have[id] = true
	}
	out := make([]netlist.SignalID, len(src.Outputs))
	for i, s := range src.Outputs {
		if !have[s] {
			return nil, fmt.Errorf("core: output %q not produced", n.SignalName(s))
		}
		out[i] = sub[s]
	}
	return out, nil
}

// Rank returns rank([A;B]), the number of independent GF(2) constraints the
// scan obfuscation layer exposes about the seed.
func (m *Model) Rank() int {
	return gf2.Rank(gf2.VStack(m.A, m.B))
}

// PredictedCandidatesLog2 returns log2 of the analytically predicted number
// of indistinguishable seeds: k − rank([A;B]). The SAT enumeration must
// agree for non-degenerate cores (verified in tests).
func (m *Model) PredictedCandidatesLog2() int {
	return m.Design.Config.KeyBits - m.Rank()
}
