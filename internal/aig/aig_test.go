package aig_test

import (
	"math/rand"
	"testing"

	// Dot-imported so the tests read like in-package tests; the external
	// test package breaks the aig -> sim -> aig test import cycle.
	. "dynunlock/internal/aig"
	"dynunlock/internal/bench"
	"dynunlock/internal/netlist"
	"dynunlock/internal/sim"
)

func TestLit(t *testing.T) {
	if ConstFalse.Not() != ConstTrue || ConstTrue.Not() != ConstFalse {
		t.Fatal("constant complement broken")
	}
	l := Lit(7<<1 | 1)
	if l.Node() != 7 || !l.Sign() || l.Not().Sign() {
		t.Fatalf("lit accessors broken: %v", l)
	}
}

func TestConstantFolding(t *testing.T) {
	g := New(2)
	a, b := g.Input(0), g.Input(1)
	cases := []struct {
		name string
		got  Lit
		want Lit
	}{
		{"and false", g.And(a, ConstFalse), ConstFalse},
		{"and true", g.And(a, ConstTrue), a},
		{"and self", g.And(a, a), a},
		{"and compl", g.And(a, a.Not()), ConstFalse},
		{"or true", g.Or(a, ConstTrue), ConstTrue},
		{"or false", g.Or(a, ConstFalse), a},
		{"xor self", g.Xor(a, a), ConstFalse},
		{"xor compl", g.Xor(a, a.Not()), ConstTrue},
		{"xor false", g.Xor(a, ConstFalse), a},
		{"xor true", g.Xor(a, ConstTrue), a.Not()},
		{"mux same", g.Mux(b, a, a), a},
		{"mux const sel 0", g.Mux(ConstFalse, a, b), a},
		{"mux const sel 1", g.Mux(ConstTrue, a, b), b},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s: got %v want %v", tc.name, tc.got, tc.want)
		}
	}
	if g.NumNodes() != 3 { // const + 2 inputs, nothing allocated
		t.Errorf("folding allocated nodes: %d", g.NumNodes())
	}
}

func TestStructuralHashing(t *testing.T) {
	g := New(3)
	a, b, c := g.Input(0), g.Input(1), g.Input(2)
	if g.And(a, b) != g.And(b, a) {
		t.Error("AND not commutative under strash")
	}
	if g.Xor(a, b) != g.Xor(b, a) {
		t.Error("XOR not commutative under strash")
	}
	// Polarity canonicalization: complement moves to the output edge.
	if g.Xor(a.Not(), b) != g.Xor(a, b).Not() {
		t.Error("XOR polarity not canonicalized")
	}
	if g.Xor(a.Not(), b.Not()) != g.Xor(a, b) {
		t.Error("double complement should cancel")
	}
	before := g.NumNodes()
	g.And(a, c)
	g.And(a, c)
	if g.NumNodes() != before+1 {
		t.Errorf("duplicate AND allocated twice: %d -> %d", before, g.NumNodes())
	}
}

func TestMuxAsXor(t *testing.T) {
	g := New(2)
	s, d := g.Input(0), g.Input(1)
	if g.Mux(s, d, d.Not()) != g.Xor(s, d) {
		t.Error("mux with complementary branches should fold to XOR")
	}
}

// TestConeOfInfluence builds a netlist with logic that feeds no output and
// checks the dead gates never reach the graph.
func TestConeOfInfluence(t *testing.T) {
	n := netlist.New("coi")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	live, _ := n.AddGate("live", netlist.And, a, b)
	dead, _ := n.AddGate("dead0", netlist.Or, a, b)
	n.AddGate("dead1", netlist.Xor, dead, b)
	n.MarkOutput(live)
	v, err := netlist.NewCombView(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromCombView(v)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumAnds() != 1 || g.NumXors() != 0 {
		t.Errorf("cone restriction failed: %d ANDs, %d XORs", g.NumAnds(), g.NumXors())
	}
}

// TestEvalMatchesSim cross-checks the AIG evaluator against the gate-level
// simulator on scaled paper benchmarks and random netlists.
func TestEvalMatchesSim(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var views []*netlist.CombView
	for _, e := range bench.Table2[:4] {
		n, err := e.Scaled(16).Build(0)
		if err != nil {
			t.Fatal(err)
		}
		v, err := netlist.NewCombView(n)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	for seed := int64(0); seed < 6; seed++ {
		n, err := bench.Generate(bench.GenConfig{
			Name: "rnd", PIs: 5, POs: 4, FFs: 8, Gates: 60, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		v, err := netlist.NewCombView(n)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}

	for _, v := range views {
		g, err := FromCombView(v)
		if err != nil {
			t.Fatalf("%s: %v", v.N.Name, err)
		}
		c := sim.NewComb(v)
		ev := NewSim(g)
		in := make([]uint64, len(v.Inputs))
		for trial := 0; trial < 8; trial++ {
			for i := range in {
				in[i] = rng.Uint64()
			}
			want := c.Eval(in)
			out := ev.Eval(in)
			for i := range want {
				if out[i] != want[i] {
					t.Fatalf("%s: output %d mismatch: aig %x sim %x", v.N.Name, i, out[i], want[i])
				}
			}
		}
	}
}

// TestCompaction: the same netlist built twice shares every node; and the
// synthetic benchmarks carry dead logic that the cone walk skips, so the
// graph is smaller than the raw gate count.
func TestCompaction(t *testing.T) {
	e := bench.Table2[0].Scaled(8)
	n, err := e.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := netlist.NewCombView(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromCombView(v)
	if err != nil {
		t.Fatal(err)
	}
	stats := n.Stats()
	if g.NumAnds()+g.NumXors() >= stats.Gates {
		t.Errorf("no compaction: %d AIG ops vs %d gates", g.NumAnds()+g.NumXors(), stats.Gates)
	}
	t.Logf("%s: %d gates -> %d AIG ops", e.Name, stats.Gates, g.NumAnds()+g.NumXors())
}
