package encode

import (
	"math/rand"
	"strings"
	"testing"

	"dynunlock/internal/cnf"
	"dynunlock/internal/netlist"
	"dynunlock/internal/sat"
	"dynunlock/internal/sim"
)

func view(t testing.TB, src string) *netlist.CombView {
	t.Helper()
	n, err := netlist.ParseBench(strings.NewReader(src), "t")
	if err != nil {
		t.Fatal(err)
	}
	v, err := netlist.NewCombView(n)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// randomCircuit builds a random combinational netlist with nIn inputs and
// nGates gates; every gate type is exercised.
func randomCircuit(rng *rand.Rand, nIn, nGates int) *netlist.CombView {
	n := netlist.New("rand")
	sigs := make([]netlist.SignalID, 0, nIn+nGates)
	for i := 0; i < nIn; i++ {
		id, _ := n.AddInput("")
		sigs = append(sigs, id)
	}
	z, _ := n.AddConst("c0", false)
	o, _ := n.AddConst("c1", true)
	sigs = append(sigs, z, o)
	types := []netlist.GateType{
		netlist.And, netlist.Nand, netlist.Or, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf, netlist.Mux,
	}
	for i := 0; i < nGates; i++ {
		t := types[rng.Intn(len(types))]
		var fan []netlist.SignalID
		switch t {
		case netlist.Not, netlist.Buf:
			fan = []netlist.SignalID{sigs[rng.Intn(len(sigs))]}
		case netlist.Mux:
			fan = []netlist.SignalID{sigs[rng.Intn(len(sigs))], sigs[rng.Intn(len(sigs))], sigs[rng.Intn(len(sigs))]}
		default:
			k := 2 + rng.Intn(2)
			for j := 0; j < k; j++ {
				fan = append(fan, sigs[rng.Intn(len(sigs))])
			}
		}
		id, err := n.AddGate("", t, fan...)
		if err != nil {
			panic(err)
		}
		sigs = append(sigs, id)
	}
	// Last few gates become outputs.
	for i := 0; i < 4 && i < len(sigs); i++ {
		n.MarkOutput(sigs[len(sigs)-1-i])
	}
	v, err := netlist.NewCombView(n)
	if err != nil {
		panic(err)
	}
	return v
}

// The encoding must agree with the simulator on every input pattern.
func TestEncodingMatchesSimulatorExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		nIn := 2 + rng.Intn(5)
		v := randomCircuit(rng, nIn, 3+rng.Intn(25))
		simulator := sim.NewComb(v)
		s := sat.New()
		e := New(s)
		inLits := e.FreshVec(len(v.Inputs))
		outLits := e.EncodeAIG(graphFor(t, v), inLits)
		for pat := 0; pat < 1<<uint(nIn); pat++ {
			in := make([]bool, nIn)
			assumptions := make([]cnf.Lit, nIn)
			for i := range in {
				in[i] = pat>>uint(i)&1 == 1
				assumptions[i] = inLits[i]
				if !in[i] {
					assumptions[i] = inLits[i].Not()
				}
			}
			if s.Solve(assumptions...) != sat.Sat {
				t.Fatalf("trial %d pat %d: UNSAT", trial, pat)
			}
			got := e.ModelBits(outLits)
			want := simulator.EvalBits(in)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d pat %d out %d: cnf=%v sim=%v", trial, pat, i, got[i], want[i])
				}
			}
		}
	}
}

// Two copies of the same circuit with shared inputs can never differ: the
// miter must be UNSAT under its activation literal.
func TestMiterSelfEquivalenceUnsat(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 20; trial++ {
		v := randomCircuit(rng, 4, 20)
		s := sat.New()
		e := New(s)
		in := e.FreshVec(len(v.Inputs))
		g := graphFor(t, v)
		y1 := e.EncodeAIG(g, in)
		y2 := e.EncodeAIG(g, in)
		act := e.Miter(y1, y2)
		if s.Solve(act) != sat.Unsat {
			t.Fatalf("trial %d: self-miter SAT", trial)
		}
		if s.Solve() != sat.Sat {
			t.Fatalf("trial %d: solver unusable after miter", trial)
		}
	}
}

// A miter between a circuit and its negation must be SAT on every input, and
// deactivating the miter must keep the solver satisfiable.
func TestMiterDetectsDifference(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
`
	src2 := `
INPUT(a)
INPUT(b)
OUTPUT(z)
z = NAND(a, b)
`
	v1, v2 := view(t, src), view(t, src2)
	s := sat.New()
	e := New(s)
	in := e.FreshVec(2)
	y1 := e.EncodeAIG(graphFor(t, v1), in)
	y2 := e.EncodeAIG(graphFor(t, v2), in)
	act := e.Miter(y1, y2)
	if s.Solve(act) != sat.Sat {
		t.Fatal("differing circuits: miter must be SAT")
	}
}

func TestXorConstantFolding(t *testing.T) {
	s := sat.New()
	e := New(s)
	a := e.Fresh()
	if e.Xor(a, e.False()) != a {
		t.Fatal("x^0 != x")
	}
	if e.Xor(a, e.True()) != a.Not() {
		t.Fatal("x^1 != !x")
	}
	if e.Xor(a, a) != e.False() {
		t.Fatal("x^x != 0")
	}
	if e.Xor(a, a.Not()) != e.True() {
		t.Fatal("x^!x != 1")
	}
	if e.Xor(e.True(), e.True()) != e.False() {
		t.Fatal("1^1 != 0")
	}
}

func TestAssertEqualConst(t *testing.T) {
	s := sat.New()
	e := New(s)
	lits := e.FreshVec(3)
	e.AssertEqualConst(lits, []bool{true, false, true})
	if s.Solve() != sat.Sat {
		t.Fatal("UNSAT")
	}
	got := e.ModelBits(lits)
	if !got[0] || got[1] || !got[2] {
		t.Fatalf("got %v", got)
	}
}

func TestConstVec(t *testing.T) {
	s := sat.New()
	e := New(s)
	cv := e.ConstVec([]bool{true, false})
	if cv[0] != e.True() || cv[1] != e.False() {
		t.Fatal("ConstVec wrong")
	}
}

func TestEncodeSequentialView(t *testing.T) {
	// Sequential circuit: next-state outputs must be encoded too.
	src := `
INPUT(en)
OUTPUT(q)
q = DFF(d)
d = XOR(q, en)
`
	v := view(t, src)
	s := sat.New()
	e := New(s)
	in := e.FreshVec(2) // en, q
	out := e.EncodeAIG(graphFor(t, v), in)
	if len(out) != 2 { // q (PO), d (next state)
		t.Fatalf("got %d outputs", len(out))
	}
	// d = q ^ en: force q=1, en=1 -> d=0
	e.AssertEqualConst(in, []bool{true, true})
	if s.Solve() != sat.Sat {
		t.Fatal("UNSAT")
	}
	bits := e.ModelBits(out)
	if bits[0] != true || bits[1] != false {
		t.Fatalf("got %v", bits)
	}
}

func TestMiterArityPanics(t *testing.T) {
	s := sat.New()
	e := New(s)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	e.Miter(e.FreshVec(2), e.FreshVec(3))
}

// Structural hashing: re-encoding the same subcircuit must not add clauses.
func TestStructuralHashing(t *testing.T) {
	s := sat.New()
	e := New(s)
	a, b := e.Fresh(), e.Fresh()
	x1 := e.Xor(a, b)
	n := s.NumClauses()
	x2 := e.Xor(a, b)
	if x1 != x2 || s.NumClauses() != n {
		t.Fatal("Xor not hash-consed")
	}
	if e.Xor(b, a) != x1 {
		t.Fatal("Xor cache not symmetric")
	}
	if e.Xor(a.Not(), b) != x1.Not() {
		t.Fatal("Xor polarity canonicalization broken")
	}
	if e.Xor(a.Not(), b.Not()) != x1 {
		t.Fatal("double negation must cancel")
	}
	a1 := e.And(a, b)
	n = s.NumClauses()
	if e.And(b, a) != a1 || s.NumClauses() != n {
		t.Fatal("And not hash-consed")
	}
	// OR is the complemented AND of complemented operands.
	o1 := e.And(a.Not(), b.Not())
	n = s.NumClauses()
	if e.And(b.Not(), a.Not()) != o1 || s.NumClauses() != n {
		t.Fatal("Or not hash-consed")
	}
}

func TestAndOrConstantFolding(t *testing.T) {
	s := sat.New()
	e := New(s)
	a := e.Fresh()
	if e.And(a, e.True()) != a || e.And(a, e.False()) != e.False() {
		t.Fatal("And folding broken")
	}
	if e.And(a, a) != a || e.And(a, a.Not()) != e.False() {
		t.Fatal("And idempotence/contradiction broken")
	}
	// OR(a, b) = !AND(!a, !b).
	if e.And(a.Not(), e.True()).Not() != a || e.And(a.Not(), e.False()).Not() != e.True() {
		t.Fatal("Or folding broken")
	}
	if e.And(e.True(), e.True()) != e.True() {
		t.Fatal("And of constants broken")
	}
}

// Re-encoding a circuit under a constant input vector — what the attack
// loop does for every distinguishing-input copy — must emit no constraint
// at all, where the free-input encoding of the same graph emits some:
// constants propagate through the gate folds instead of producing dead
// Tseitin nodes.
func TestConstantInputEncodingCheaper(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	totalFree := 0
	for trial := 0; trial < 10; trial++ {
		v := randomCircuit(rng, 6, 40)
		g := graphFor(t, v)
		s := sat.New()
		e := New(s)
		emitted := func() int { return s.NumClauses() + s.NumXors() }

		before := emitted()
		e.EncodeAIG(g, e.FreshVec(len(v.Inputs)))
		freeClauses := emitted() - before
		totalFree += freeClauses

		consts := make([]cnf.Lit, len(v.Inputs))
		for i := range consts {
			consts[i] = e.Const(rng.Intn(2) == 1)
		}
		before = emitted()
		outs := e.EncodeAIG(g, consts)
		constClauses := emitted() - before

		if constClauses != 0 {
			t.Fatalf("trial %d: constant-input encoding emitted %d constraints, free encoding %d",
				trial, constClauses, freeClauses)
		}
		// Under all-constant inputs every output must itself be constant.
		for i, o := range outs {
			if o != e.True() && o != e.False() {
				t.Fatalf("trial %d: output %d not folded to a constant", trial, i)
			}
		}
	}
	if totalFree == 0 {
		t.Fatal("no free-input encoding emitted a constraint; the comparison is vacuous")
	}
}
