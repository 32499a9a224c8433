package netlist

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

// s27ish is a small sequential bench in the style of ISCAS-89 s27 (3 DFFs,
// 4 inputs, 1 output), with forward references as in the published files.
const s27ish = `
# s27-style test circuit
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
G17 = NOT(G11)
`

func parse(t *testing.T, src string) *Netlist {
	t.Helper()
	n, err := ParseBench(strings.NewReader(src), "test")
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	return n
}

func TestParseBenchS27(t *testing.T) {
	n := parse(t, s27ish)
	st := n.Stats()
	if st.PIs != 4 || st.POs != 1 || st.DFFs != 3 || st.Gates != 10 {
		t.Fatalf("stats = %+v", st)
	}
	id, ok := n.Lookup("G8")
	if !ok {
		t.Fatal("G8 missing")
	}
	if n.Type(id) != And || len(n.Fanin(id)) != 2 {
		t.Fatalf("G8 = %v(%v)", n.Type(id), n.Fanin(id))
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"undefined signal", "INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)"},
		{"double definition", "INPUT(a)\na = NOT(a)"},
		{"bad gate", "INPUT(a)\nz = FROB(a)"},
		{"bad arity not", "INPUT(a)\nINPUT(b)\nz = NOT(a, b)"},
		{"bad arity and", "INPUT(a)\nz = AND(a)"},
		{"malformed", "INPUT a"},
		{"comb cycle", "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = AND(a, x)"},
		{"dff arity", "INPUT(a)\nINPUT(b)\nq = DFF(a, b)"},
		{"empty fanin", "INPUT(a)\nz = AND(a,)"},
	}
	for _, tc := range cases {
		if _, err := ParseBench(strings.NewReader(tc.src), "t"); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestParseConstsAndComments(t *testing.T) {
	src := `
# header
INPUT(a)   # trailing comment
OUTPUT(z)
g = gnd
v = vcc
z = MUX(a, g, v)
`
	n := parse(t, src)
	id, _ := n.Lookup("g")
	if n.Type(id) != Const0 {
		t.Fatal("gnd not Const0")
	}
	id, _ = n.Lookup("v")
	if n.Type(id) != Const1 {
		t.Fatal("vcc not Const1")
	}
	id, _ = n.Lookup("z")
	if n.Type(id) != Mux {
		t.Fatal("z not MUX")
	}
}

func TestWriteBenchRoundTrip(t *testing.T) {
	n := parse(t, s27ish)
	var buf bytes.Buffer
	if err := n.WriteBench(&buf); err != nil {
		t.Fatal(err)
	}
	n2, err := ParseBench(&buf, "roundtrip")
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	s1, s2 := n.Stats(), n2.Stats()
	s1.Name, s2.Name = "", ""
	if s1 != s2 {
		t.Fatalf("stats changed: %+v vs %+v", s1, s2)
	}
	// Same gate definition for every signal name.
	for _, name := range n.names {
		a, _ := n.Lookup(name)
		b, ok := n2.Lookup(name)
		if !ok {
			t.Fatalf("signal %q lost", name)
		}
		ga, gb := n.Gate(a), n2.Gate(b)
		if ga.Type != gb.Type || len(ga.Fanin) != len(gb.Fanin) {
			t.Fatalf("signal %q changed: %v vs %v", name, ga, gb)
		}
		for i := range ga.Fanin {
			if n.SignalName(ga.Fanin[i]) != n2.SignalName(gb.Fanin[i]) {
				t.Fatalf("signal %q fanin %d changed", name, i)
			}
		}
	}
}

func TestLevelizeOrder(t *testing.T) {
	n := parse(t, s27ish)
	order, err := n.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[SignalID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, id := range order {
		for _, f := range n.Fanin(id) {
			ft := n.Type(f)
			if ft == Input || ft == DFF || ft == Const0 || ft == Const1 {
				continue
			}
			if pos[f] >= pos[id] {
				t.Fatalf("%s not before %s", n.SignalName(f), n.SignalName(id))
			}
		}
	}
	if len(order) != n.Stats().Gates {
		t.Fatalf("order covers %d gates, want %d", len(order), n.Stats().Gates)
	}
}

func TestCombView(t *testing.T) {
	n := parse(t, s27ish)
	v, err := NewCombView(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Inputs) != 4+3 || len(v.Outputs) != 1+3 {
		t.Fatalf("view sizes %d/%d", len(v.Inputs), len(v.Outputs))
	}
	if v.NumPI != 4 || v.NumPO != 1 {
		t.Fatalf("splits %d/%d", v.NumPI, v.NumPO)
	}
	// DFF D inputs appear as outputs, in DFF order.
	for i, q := range n.DFFs() {
		if v.Outputs[v.NumPO+i] != n.Fanin(q)[0] {
			t.Fatal("next-state output mismatch")
		}
	}
}

func TestBuilderAPI(t *testing.T) {
	n := New("built")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	x, err := n.AddGate("x", Xor, a, b)
	if err != nil {
		t.Fatal(err)
	}
	q, err := n.AddDFF("q", x)
	if err != nil {
		t.Fatal(err)
	}
	n.MarkOutput(q)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddGate("bad", And, a); err == nil {
		t.Fatal("arity error not caught")
	}
	if _, err := n.AddGate("bad2", And, a, SignalID(99)); err == nil {
		t.Fatal("undefined fanin not caught")
	}
	if _, err := n.AddInput("a"); err == nil {
		t.Fatal("redefinition not caught")
	}
}

func TestValidateCatchesUnresolvedRef(t *testing.T) {
	n := New("dangling")
	a, _ := n.AddInput("a")
	_ = a
	n.MarkOutput(n.Ref("ghost"))
	if err := n.Validate(); err == nil {
		t.Fatal("unresolved Ref must fail Validate")
	}
}

func TestAutoNames(t *testing.T) {
	n := New("auto")
	a, _ := n.AddInput("")
	b, _ := n.AddInput("")
	if n.SignalName(a) == n.SignalName(b) {
		t.Fatal("auto names collide")
	}
	if _, err := n.AddGate("", And, a, b); err != nil {
		t.Fatal(err)
	}
}

func TestGateTypeString(t *testing.T) {
	if Nand.String() != "NAND" || Buf.String() != "BUFF" {
		t.Fatal("GateType.String wrong")
	}
}

// Property (testing/quick): generated names survive a write/parse round
// trip and stats are preserved for random small circuits.
func TestBenchRoundTripQuick(t *testing.T) {
	f := func(gateSeed uint16) bool {
		rng := int(gateSeed)
		n := New("q")
		a, _ := n.AddInput("a")
		b, _ := n.AddInput("b")
		sigs := []SignalID{a, b}
		types := []GateType{And, Or, Xor, Nand, Nor, Xnor}
		for i := 0; i < 3+rng%20; i++ {
			t := types[(rng+i)%len(types)]
			x := sigs[(rng+i)%len(sigs)]
			y := sigs[(rng+i*7)%len(sigs)]
			id, err := n.AddGate("", t, x, y)
			if err != nil {
				return false
			}
			sigs = append(sigs, id)
		}
		n.MarkOutput(sigs[len(sigs)-1])
		var buf bytes.Buffer
		if err := n.WriteBench(&buf); err != nil {
			return false
		}
		n2, err := ParseBench(&buf, "q")
		if err != nil {
			return false
		}
		s1, s2 := n.Stats(), n2.Stats()
		return s1.PIs == s2.PIs && s1.POs == s2.POs && s1.Gates == s2.Gates
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
