package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dynunlock/internal/aig"
	"dynunlock/internal/bench"
	"dynunlock/internal/lock"
	"dynunlock/internal/netlist"
	"dynunlock/internal/scan"
)

// netlistMaskModel is the reference for BuildMaskModel's graph: the same
// model built as one named netlist (a′ = a ⊕ u gates, a clone of the core
// per capture, b = state ⊕ v gates), to be compiled with aig.FromCombView.
// Its inputs and outputs are ordered as MaskModel documents.
func netlistMaskModel(d *lock.Design, mm *MaskModel) (*netlist.Netlist, error) {
	n := d.Chain.Length
	src := d.View
	m := netlist.New(fmt.Sprintf("%s-mask-model-x%d", d.Netlist.Name, mm.Captures))
	add := func(name string) netlist.SignalID {
		id, err := m.AddInput(name)
		if err != nil {
			panic(err)
		}
		return id
	}
	piIDs := make([][]netlist.SignalID, mm.Captures)
	for c := range piIDs {
		piIDs[c] = make([]netlist.SignalID, src.NumPI)
		for i := range piIDs[c] {
			piIDs[c][i] = add(fmt.Sprintf("pi%d_%d", c, i))
		}
	}
	aIDs := make([]netlist.SignalID, n)
	for j := range aIDs {
		aIDs[j] = add(fmt.Sprintf("a%d", j))
	}
	uIDs := make(map[int]netlist.SignalID)
	for _, j := range mm.UPos {
		uIDs[j] = add(fmt.Sprintf("u%d", j))
	}
	vIDs := make(map[int]netlist.SignalID)
	for _, j := range mm.VPos {
		vIDs[j] = add(fmt.Sprintf("v%d", j))
	}

	state := make([]netlist.SignalID, n)
	for j := 0; j < n; j++ {
		state[j] = aIDs[j]
		if id, ok := uIDs[j]; ok {
			ap, err := m.AddGate(fmt.Sprintf("ap%d", j), netlist.Xor, aIDs[j], id)
			if err != nil {
				return nil, err
			}
			state[j] = ap
		}
	}
	for c := 0; c < mm.Captures; c++ {
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
	return m, m.Validate()
}

// sameGraph reports the first difference between two graphs: their
// inputs, every node in arena order, or their outputs.
func sameGraph(got, want *aig.Graph) error {
	if got.NumInputs() != want.NumInputs() {
		return fmt.Errorf("%d inputs, want %d", got.NumInputs(), want.NumInputs())
	}
	for i := 0; i < want.NumInputs(); i++ {
		if got.Input(i) != want.Input(i) {
			return fmt.Errorf("input %d is %v, want %v", i, got.Input(i), want.Input(i))
		}
	}
	if got.NumNodes() != want.NumNodes() {
		return fmt.Errorf("%d nodes, want %d", got.NumNodes(), want.NumNodes())
	}
	for i := 0; i < want.NumNodes(); i++ {
		gk, ga, gb := got.NodeAt(i)
		wk, wa, wb := want.NodeAt(i)
		if gk != wk || ga != wa || gb != wb {
			return fmt.Errorf("node %d is (%v %v %v), want (%v %v %v)", i, gk, ga, gb, wk, wa, wb)
		}
	}
	if len(got.Outputs()) != len(want.Outputs()) {
		return fmt.Errorf("%d outputs, want %d", len(got.Outputs()), len(want.Outputs()))
	}
	for i, o := range want.Outputs() {
		if got.Outputs()[i] != o {
			return fmt.Errorf("output %d is %v, want %v", i, got.Outputs()[i], o)
		}
	}
	return nil
}

// deadFlopNetlist is a 4-flop design in which q3's present state feeds
// nothing (q3 is last on the chain, so every key gate masks it on the way
// in), q1's next state is q2's present state with no gate between them,
// and the other next states are gates.
func deadFlopNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	n, err := netlist.ParseBench(strings.NewReader(`
INPUT(p0)
INPUT(p1)
OUTPUT(o0)
q0 = DFF(d0)
q1 = DFF(q2)
q2 = DFF(d2)
q3 = DFF(d3)
d0 = AND(p0, q1)
d2 = XOR(q1, p1)
d3 = NAND(q0, q2)
o0 = OR(q2, p0)
`), "deadflop")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestMaskGraphMatchesNetlistModel checks that BuildMaskModel builds, node
// for node, the graph that compiling the model as one netlist builds: so
// the encoder sweeps the same nodes in the same order, and the attack
// searches exactly as it did over the netlist. It covers random designs at
// 1–3 captures under all three policies, the ten Table II circuits at
// scale 16, and a design with a masked flop whose present state feeds
// nothing, where building every a ⊕ u would add a node.
func TestMaskGraphMatchesNetlistModel(t *testing.T) {
	type design struct {
		name string
		d    *lock.Design
	}
	var designs []design
	rng := rand.New(rand.NewSource(62))
	policies := []scan.Policy{scan.Static, scan.PerPattern, scan.PerCycle}
	for trial := 0; trial < 12; trial++ {
		policy := policies[trial%len(policies)]
		d, _ := lockedChip(t, 4+rng.Intn(12), 3+rng.Intn(8), policy, rng.Int63n(1<<40)+1, rng.Int63n(1<<40)+1)
		designs = append(designs, design{fmt.Sprintf("random %d (%v)", trial, policy), d})
	}
	for _, e := range bench.Table2 {
		n, err := e.Scaled(16).Build(0)
		if err != nil {
			t.Fatal(err)
		}
		d, err := lock.Lock(n, lock.Config{KeyBits: 8, Policy: scan.PerCycle})
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, design{e.Name, d})
	}
	deadMasked := 0
	for _, policy := range policies {
		for seed := int64(0); seed < 4; seed++ {
			d, err := lock.Lock(deadFlopNetlist(t), lock.Config{KeyBits: 4, Policy: policy, PlacementSeed: seed})
			if err != nil {
				t.Fatal(err)
			}
			designs = append(designs, design{fmt.Sprintf("dead flop, placement %d (%v)", seed, policy), d})
		}
	}

	for _, ds := range designs {
		for captures := 1; captures <= 3; captures++ {
			mm, err := BuildMaskModel(ds.d, 0, captures)
			if err != nil {
				t.Fatalf("%s x%d: %v", ds.name, captures, err)
			}
			m, err := netlistMaskModel(ds.d, mm)
			if err != nil {
				t.Fatalf("%s x%d: %v", ds.name, captures, err)
			}
			view, err := netlist.NewCombView(m)
			if err != nil {
				t.Fatal(err)
			}
			want, err := aig.FromCombView(view)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameGraph(mm.Locked.Graph, want); err != nil {
				t.Fatalf("%s x%d: %v", ds.name, captures, err)
			}
			nonKey := captures*ds.d.View.NumPI + ds.d.Chain.Length
			if len(mm.Locked.InIdx) != nonKey || len(mm.Locked.KeyIdx) != len(mm.UPos)+len(mm.VPos) {
				t.Fatalf("%s x%d: %d attacker and %d key inputs", ds.name, captures, len(mm.Locked.InIdx), len(mm.Locked.KeyIdx))
			}
			if ds.d.Netlist.Name == "deadflop" && slices.Contains(mm.UPos, 3) {
				deadMasked++
			}
		}
	}
	if deadMasked == 0 {
		t.Fatal("no placement masked q3, so the dead-flop case was not exercised")
	}
}
