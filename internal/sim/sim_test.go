package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dynunlock/internal/netlist"
)

func mustParse(t *testing.T, src string) *netlist.CombView {
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

func TestGateTruthTables(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(oand) OUTPUT(onand) OUTPUT(oor) OUTPUT(onor)
OUTPUT(oxor) OUTPUT(oxnor) OUTPUT(onot) OUTPUT(obuf) OUTPUT(omux)
OUTPUT(ocz) OUTPUT(oco)
oand = AND(a, b)
onand = NAND(a, b)
oor = OR(a, b)
onor = NOR(a, b)
oxor = XOR(a, b)
oxnor = XNOR(a, b)
onot = NOT(a)
obuf = BUFF(a)
omux = MUX(a, b, c)
ocz = gnd
oco = vcc
`
	// OUTPUT statements must be on separate lines for the parser; rewrite.
	src = strings.ReplaceAll(src, ") OUTPUT", ")\nOUTPUT")
	v := mustParse(t, src)
	c := NewComb(v)
	for pat := 0; pat < 8; pat++ {
		a, b, cc := pat&1 == 1, pat&2 == 2, pat&4 == 4
		out := c.EvalBits([]bool{a, b, cc})
		mux := b
		if a {
			mux = cc
		}
		want := []bool{a && b, !(a && b), a || b, !(a || b), a != b, a == b, !a, a, mux, false, true}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("pattern %d output %d (%s): got %v want %v",
					pat, i, v.N.SignalName(v.Outputs[i]), out[i], want[i])
			}
		}
	}
}

func TestMultiInputGates(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(x)
OUTPUT(y)
x = XOR(a, b, c, d)
y = NAND(a, b, c, d)
`
	v := mustParse(t, src)
	c := NewComb(v)
	for pat := 0; pat < 16; pat++ {
		in := []bool{pat&1 != 0, pat&2 != 0, pat&4 != 0, pat&8 != 0}
		out := c.EvalBits(in)
		parity := in[0] != in[1] != in[2] != in[3]
		nand := !(in[0] && in[1] && in[2] && in[3])
		if out[0] != parity || out[1] != nand {
			t.Fatalf("pattern %d: got %v", pat, out)
		}
	}
}

// Bit-parallel evaluation must agree with 64 sequential single-bit runs.
func TestBitParallelConsistency(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
t1 = AND(a, b)
t2 = XOR(t1, c)
t3 = NOR(a, t2)
z = MUX(t3, t1, t2)
`
	v := mustParse(t, src)
	c := NewComb(v)
	rng := rand.New(rand.NewSource(21))
	words := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
	outWords := c.Eval(words)
	for bit := 0; bit < 64; bit++ {
		in := []bool{words[0]>>uint(bit)&1 == 1, words[1]>>uint(bit)&1 == 1, words[2]>>uint(bit)&1 == 1}
		out := c.EvalBits(in)
		if out[0] != (outWords[0]>>uint(bit)&1 == 1) {
			t.Fatalf("bit %d mismatch", bit)
		}
	}
}

const counterSrc = `
# 2-bit counter with enable: q0' = q0 XOR en ; q1' = q1 XOR (q0 AND en)
INPUT(en)
OUTPUT(q1)
q0 = DFF(d0)
q1 = DFF(d1)
d0 = XOR(q0, en)
t = AND(q0, en)
d1 = XOR(q1, t)
`

func TestSeqCounter(t *testing.T) {
	v := mustParse(t, counterSrc)
	s := NewSeq(v)
	// Count 5 enabled cycles: state should be 5 mod 4 = 01 (q0=1, q1=0).
	for i := 0; i < 5; i++ {
		s.Step([]bool{true})
	}
	st := s.State()
	if st[0] != true || st[1] != false {
		t.Fatalf("state after 5 = %v", st)
	}
	// Two disabled cycles: unchanged.
	s.Step([]bool{false})
	s.Step([]bool{false})
	st = s.State()
	if st[0] != true || st[1] != false {
		t.Fatalf("state after idle = %v", st)
	}
	// q1 output is sampled pre-edge; a disabled cycle reads it unchanged.
	s.SetState([]bool{false, false})
	po := s.Step([]bool{true})
	if po[0] != false {
		t.Fatal("PO must be pre-edge value")
	}
	if got := s.Step([]bool{false}); got[0] != false {
		t.Fatalf("q1 after 1 count = %v", got)
	}
	for i := 0; i < 1; i++ {
		s.Step([]bool{true})
	}
	// state now 2 -> q1 = 1
	if got := s.Step([]bool{false}); got[0] != true {
		t.Fatalf("q1 after 2 counts = %v", got)
	}
}

func TestSeqSetState(t *testing.T) {
	v := mustParse(t, counterSrc)
	s := NewSeq(v)
	s.SetState([]bool{true, true})
	if got := s.Step([]bool{false}); got[0] != true {
		t.Fatal("SetState not honored")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on bad state length")
		}
	}()
	s.SetState([]bool{true})
}

func TestEvalInputCountPanics(t *testing.T) {
	v := mustParse(t, counterSrc)
	c := NewComb(v)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	c.Eval([]uint64{1})
}

func TestConstFeedingGate(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(z)
one = vcc
z = AND(a, one)
`
	v := mustParse(t, src)
	c := NewComb(v)
	if got := c.EvalBits([]bool{true}); !got[0] {
		t.Fatal("AND with vcc lost the input")
	}
	if got := c.EvalBits([]bool{false}); got[0] {
		t.Fatal("AND with vcc stuck high")
	}
}

func BenchmarkEval64Patterns(b *testing.B) {
	// Random 2000-gate circuit.
	n := netlist.New("bench")
	rng := rand.New(rand.NewSource(5))
	var sigs []netlist.SignalID
	for i := 0; i < 32; i++ {
		id, _ := n.AddInput("")
		sigs = append(sigs, id)
	}
	types := []netlist.GateType{netlist.And, netlist.Or, netlist.Xor, netlist.Nand, netlist.Nor}
	for i := 0; i < 2000; i++ {
		a := sigs[rng.Intn(len(sigs))]
		bb := sigs[rng.Intn(len(sigs))]
		id, err := n.AddGate("", types[rng.Intn(len(types))], a, bb)
		if err != nil {
			b.Fatal(err)
		}
		sigs = append(sigs, id)
	}
	n.MarkOutput(sigs[len(sigs)-1])
	v, err := netlist.NewCombView(n)
	if err != nil {
		b.Fatal(err)
	}
	c := NewComb(v)
	in := make([]uint64, 32)
	for i := range in {
		in[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Eval(in)
	}
}

// Property (testing/quick): simulation is deterministic and word-parallel
// evaluation distributes over bit position for random input words.
func TestEvalDeterministicQuick(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
t1 = NAND(a, b)
t2 = XOR(t1, c)
z = NOR(t2, a)
`
	v := mustParse(t, src)
	c := NewComb(v)
	f := func(w0, w1, w2 uint64) bool {
		in := []uint64{w0, w1, w2}
		out1 := c.Eval(in)
		out2 := c.Eval(in)
		if out1[0] != out2[0] {
			return false
		}
		for bit := 0; bit < 64; bit += 17 {
			bits := c.EvalBits([]bool{w0>>uint(bit)&1 == 1, w1>>uint(bit)&1 == 1, w2>>uint(bit)&1 == 1})
			if bits[0] != (out1[0]>>uint(bit)&1 == 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
