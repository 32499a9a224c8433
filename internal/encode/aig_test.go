package encode

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dynunlock/internal/aig"
	"dynunlock/internal/bench"
	"dynunlock/internal/cnf"
	"dynunlock/internal/netlist"
	"dynunlock/internal/sat"
	"dynunlock/internal/sim"
)

func graphFor(t testing.TB, v *netlist.CombView) *aig.Graph {
	t.Helper()
	g, err := aig.FromCombView(v)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// A copy whose inputs mix constants and free literals — the shape of the
// attack's DIP-constrained copies — must agree with the simulator on every
// pattern of the free inputs: constant folding and the liveness sweep may
// drop nodes but never change an output.
func TestEncodeAIGMatchesSimulatorExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		nIn := 2 + rng.Intn(5)
		v := randomCircuit(rng, nIn, 3+rng.Intn(25))
		g := graphFor(t, v)
		simulator := sim.NewComb(v)
		s := sat.New()
		e := New(s)
		// Each input is a constant with probability 1/3, else a fresh literal.
		constant := make([]bool, nIn)
		fixed := make([]bool, nIn)
		inLits := make([]cnf.Lit, nIn)
		for i := range inLits {
			if constant[i] = rng.Intn(3) == 0; constant[i] {
				fixed[i] = rng.Intn(2) == 1
				inLits[i] = e.Const(fixed[i])
			} else {
				inLits[i] = e.Fresh()
			}
		}
		outLits := e.EncodeAIG(g, inLits)
		for pat := 0; pat < 1<<uint(nIn); pat++ {
			in := make([]bool, nIn)
			var assumptions []cnf.Lit
			skip := false
			for i := range in {
				in[i] = pat>>uint(i)&1 == 1
				if constant[i] {
					skip = skip || in[i] != fixed[i]
					continue
				}
				l := inLits[i]
				if !in[i] {
					l = l.Not()
				}
				assumptions = append(assumptions, l)
			}
			if skip {
				continue
			}
			if s.Solve(assumptions...) != sat.Sat {
				t.Fatalf("trial %d pat %d: UNSAT", trial, pat)
			}
			got := e.ModelBits(outLits)
			want := simulator.EvalBits(in)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d pat %d out %d: aig=%v sim=%v", trial, pat, i, got[i], want[i])
				}
			}
		}
	}
}

// A fully constant-input copy must collapse to constants without emitting a
// single clause, and a DIP-style copy (half the inputs constant, half free)
// must emit fewer constraints than a copy with every input free.
func TestEncodeAIGConstantCollapse(t *testing.T) {
	e2 := bench.Table2[0].Scaled(16)
	n, err := e2.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := netlist.NewCombView(n)
	if err != nil {
		t.Fatal(err)
	}
	g := graphFor(t, v)

	s := sat.New()
	e := New(s)
	consts := make([]cnf.Lit, len(v.Inputs))
	vals := make([]bool, len(v.Inputs))
	rng := rand.New(rand.NewSource(7))
	for i := range consts {
		vals[i] = rng.Intn(2) == 1
		consts[i] = e.Const(vals[i])
	}
	before := s.NumClauses()
	out := e.EncodeAIG(g, consts)
	if d := s.NumClauses() - before; d != 0 {
		t.Fatalf("constant copy emitted %d clauses", d)
	}
	want := sim.NewComb(v).EvalBits(vals)
	for i, l := range out {
		if got := l == e.True(); got != want[i] {
			t.Fatalf("constant output %d: aig=%v sim=%v", i, got, want[i])
		}
	}

	// DIP-style copy: half the inputs constant, half shared fresh literals.
	half := len(v.Inputs) / 2
	mixed := make([]cnf.Lit, len(v.Inputs))
	free := e.FreshVec(len(v.Inputs) - half)
	for i := range mixed {
		if i < half {
			mixed[i] = consts[i]
		} else {
			mixed[i] = free[i-half]
		}
	}
	emitted := func() int { return s.NumClauses() + s.NumXors() }
	before = emitted()
	e.EncodeAIG(g, mixed)
	mixedDelta := emitted() - before

	before = emitted()
	e.EncodeAIG(g, e.FreshVec(len(v.Inputs)))
	freeDelta := emitted() - before

	if mixedDelta >= freeDelta {
		t.Errorf("DIP-style copy emitted %d constraints, free copy %d", mixedDelta, freeDelta)
	}
	t.Logf("DIP-style copy: %d constraints vs free copy %d (%.1fx)", mixedDelta, freeDelta, float64(freeDelta)/float64(mixedDelta+1))
}

// TestResetEncoderEncodesLikeNew encodes graph A, Resets the solver and
// the encoder, and encodes graph B, which shares gates with A. The
// returned literals and the solver's DIMACS dump, XOR rows included, must
// equal those of a new encoder on a new solver that encodes only B. A gate
// table kept across Reset would answer B's shared gates with A's literals
// and emit none of their constraints.
func TestResetEncoderEncodesLikeNew(t *testing.T) {
	encodeFresh := func(e *Encoder, g *aig.Graph) ([]cnf.Lit, string) {
		out := e.EncodeAIG(g, e.FreshVec(g.NumInputs()))
		var dump strings.Builder
		if err := e.S.WriteDimacs(&dump); err != nil {
			t.Fatal(err)
		}
		return out, dump.String()
	}
	xorRows := false
	for seed := int64(0); seed < 20; seed++ {
		// The same generator seed makes A's gates the first gates of B.
		a := graphFor(t, randomCircuit(rand.New(rand.NewSource(seed)), 5, 30))
		b := graphFor(t, randomCircuit(rand.New(rand.NewSource(seed)), 5, 40))

		reused := New(sat.New())
		encodeFresh(reused, a)
		reused.S.Reset()
		reused.Reset()
		gotOut, gotDump := encodeFresh(reused, b)
		wantOut, wantDump := encodeFresh(New(sat.New()), b)
		if !slices.Equal(gotOut, wantOut) {
			t.Fatalf("seed %d: outputs %v after Reset, %v from a new encoder", seed, gotOut, wantOut)
		}
		if gotDump != wantDump {
			t.Fatalf("seed %d: dump after Reset:\n%s\nfrom a new encoder:\n%s", seed, gotDump, wantDump)
		}
		xorRows = xorRows || strings.Contains(wantDump, "\nx ")
	}
	if !xorRows {
		t.Fatal("no graph had an XOR row, so the dumps did not compare them")
	}
}
