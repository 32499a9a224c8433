package lfsr

import (
	"math/rand"
	"testing"

	"dynunlock/internal/gf2"
)

// mustNew is New for polynomials the test knows to be valid.
func mustNew(t testing.TB, p Poly) *LFSR {
	t.Helper()
	l, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// testNLFSR is a width-n nonlinear register with the default linear taps
// and two AND pairs, returned with its pairs.
func testNLFSR(t testing.TB, n int) (*NLFSR, [][2]int) {
	t.Helper()
	pairs := [][2]int{{0, n / 2}, {n / 3, n - 1}}
	r, err := NewNLFSR(DefaultPoly(n), pairs)
	if err != nil {
		t.Fatal(err)
	}
	return r, pairs
}

func randSeed(rng *rand.Rand, n int) gf2.Vec {
	v := gf2.NewVec(n)
	any := false
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i, true)
			any = true
		}
	}
	if !any {
		v.Set(rng.Intn(n), true)
	}
	return v
}

func TestPolyValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Poly
		ok   bool
	}{
		{"good", Poly{N: 4, Taps: []int{4, 3}}, true},
		{"zero width", Poly{N: 0, Taps: []int{1}}, false},
		{"no taps", Poly{N: 4}, false},
		{"tap out of range", Poly{N: 4, Taps: []int{5, 4}}, false},
		{"tap below range", Poly{N: 4, Taps: []int{0, 4}}, false},
		{"duplicate tap", Poly{N: 4, Taps: []int{4, 4}}, false},
		{"missing last tap", Poly{N: 4, Taps: []int{3, 2}}, false},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestDefaultPolyAlwaysValid(t *testing.T) {
	for n := 1; n <= 400; n++ {
		p := DefaultPoly(n)
		if err := p.Validate(); err != nil {
			t.Fatalf("width %d: %v", n, err)
		}
		if p.N != n {
			t.Fatalf("width %d: got N=%d", n, p.N)
		}
	}
}

// Tabulated polynomials must reach the maximal period 2^n - 1 for the small
// widths where exhaustive cycling is cheap.
func TestMaximalPeriodSmallWidths(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16} {
		l := mustNew(t, DefaultPoly(n))
		seed := gf2.Unit(n, 0)
		l.Seed(seed)
		period := 0
		for {
			l.Step()
			period++
			if l.View().Equal(seed) {
				break
			}
			if period > 1<<uint(n) {
				t.Fatalf("width %d: period exceeds state space", n)
			}
		}
		if period != 1<<uint(n)-1 {
			t.Errorf("width %d: period %d, want %d", n, period, 1<<uint(n)-1)
		}
	}
}

func TestZeroStateFixedPoint(t *testing.T) {
	l := mustNew(t, DefaultPoly(8))
	for range 5 {
		l.Step()
	}
	if !l.View().IsZero() {
		t.Fatal("zero state must be a fixed point of XOR feedback")
	}
}

// stepwiseStates is the unroll the Schedule replaced, kept as its
// reference: a symbolic copy of the whole register, stepped like the
// concrete one, snapshotted as a matrix at every step (out[t]·seed is the
// state after t steps).
func stepwiseStates(p Poly, steps int) []*gf2.Mat {
	rows := make([]gf2.Vec, p.N)
	for i := range rows {
		rows[i] = gf2.Unit(p.N, i)
	}
	out := make([]*gf2.Mat, steps+1)
	for t := range out {
		out[t] = gf2.NewMat(0, 0)
		for _, r := range rows {
			out[t].AppendRow(r)
		}
		fb := gf2.NewVec(p.N)
		for _, tap := range p.Taps {
			fb.Xor(rows[tap-1])
		}
		copy(rows[1:], rows[:p.N-1])
		rows[0] = fb
	}
	return out
}

// The schedule must agree bit for bit with the concrete register on every
// step and every seed, and row for row with the stepwise reference unroll,
// for tabulated and fallback polynomials (37, 144 and 368 fall back).
// Step 0 is the seed identity.
func TestSymbolicMatchesConcrete(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{3, 8, 16, 37, 128, 144, 368} {
		p := DefaultPoly(n)
		steps := 3*n + 5
		s, err := Unroll(p, steps)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if !s.Row(0, i).Equal(gf2.Unit(n, i)) {
				t.Fatalf("n=%d: step 0 bit %d is not seed bit %d", n, i, i)
			}
		}
		for tcyc, m := range stepwiseStates(p, steps) {
			for i := 0; i < n; i++ {
				if !s.Row(tcyc, i).Equal(m.Row(i)) {
					t.Fatalf("n=%d step=%d bit=%d: schedule row differs from the stepwise unroll", n, tcyc, i)
				}
			}
		}
		for trial := 0; trial < 3; trial++ {
			seed := randSeed(rng, n)
			l := mustNew(t, p)
			l.Seed(seed)
			for tcyc := 0; tcyc <= steps; tcyc++ {
				for i := 0; i < n; i++ {
					if s.Row(tcyc, i).Dot(seed) != l.View().Get(i) {
						t.Fatalf("n=%d step=%d bit=%d: symbolic bit differs from the concrete register", n, tcyc, i)
					}
				}
				l.Step()
			}
		}
	}
}

func TestUnrollRejectsInvalid(t *testing.T) {
	if _, err := Unroll(Poly{N: 3, Taps: []int{2}}, 4); err == nil {
		t.Fatal("want error for an invalid polynomial")
	}
	if _, err := Unroll(DefaultPoly(3), -1); err == nil {
		t.Fatal("want error for a negative step count")
	}
	s, err := Unroll(DefaultPoly(3), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range [][2]int{{-1, 0}, {5, 0}, {0, -1}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Row(%d, %d) outside the schedule must panic", tc[0], tc[1])
				}
			}()
			s.Row(tc[0], tc[1])
		}()
	}
}

// stepBits is the per-bit Step the word-level one replaced, kept as its
// reference: feedback from the taps (and AND pairs), then every bit moves
// up one position by a checked Get/Set.
func stepBits(state gf2.Vec, p Poly, andPairs [][2]int) {
	fb := false
	for _, t := range p.Taps {
		fb = fb != state.Get(t-1)
	}
	for _, pr := range andPairs {
		fb = fb != (state.Get(pr[0]) && state.Get(pr[1]))
	}
	for i := p.N - 1; i > 0; i-- {
		state.Set(i, state.Get(i-1))
	}
	state.Set(0, fb)
}

// The word-level Step of both registers must follow the per-bit
// reference, across word boundaries (widths 63 to 65, 128, 144, 368).
func TestStepMatchesPerBitShift(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{3, 8, 37, 63, 64, 65, 128, 144, 368} {
		p := DefaultPoly(n)
		nl, pairs := testNLFSR(t, n)
		for _, reg := range []struct {
			r        Register
			andPairs [][2]int
		}{{mustNew(t, p), nil}, {nl, pairs}} {
			seed := randSeed(rng, n)
			reg.r.Seed(seed)
			ref := seed.Clone()
			for step := 0; step < 3*n; step++ {
				reg.r.Step()
				stepBits(ref, p, reg.andPairs)
				if !reg.r.View().Equal(ref) {
					t.Fatalf("%T n=%d step %d: %s, want %s", reg.r, n, step, reg.r.View(), ref)
				}
			}
		}
	}
}

// transitionMatrix is the N×N matrix L with state(t+1) = L·state(t), the
// matrix view of p's register that TestUnrollMatchesMatrixPower checks the
// schedule against.
func transitionMatrix(p Poly) *gf2.Mat {
	m := gf2.NewMat(p.N, p.N)
	for _, t := range p.Taps {
		m.Set(0, t-1, true)
	}
	for i := 1; i < p.N; i++ {
		m.Set(i, i-1, true)
	}
	return m
}

// The transition matrix must be invertible (bijective state update) and
// must reproduce single-step evolution.
func TestTransitionMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{4, 16, 128, 144, 368} {
		p := DefaultPoly(n)
		L := transitionMatrix(p)
		if gf2.Rank(L) != n {
			t.Fatalf("width %d: transition matrix singular", n)
		}
		seed := randSeed(rng, n)
		l := mustNew(t, p)
		l.Seed(seed)
		l.Step()
		if !L.MulVec(seed).Equal(l.View()) {
			t.Fatalf("width %d: L·s != step(s)", n)
		}
	}
}

// Row t of the schedule must equal L^t for all t, tying the two symbolic
// views together.
func TestUnrollMatchesMatrixPower(t *testing.T) {
	const n = 16
	p := DefaultPoly(n)
	L := transitionMatrix(p)
	s, err := Unroll(p, 40)
	if err != nil {
		t.Fatal(err)
	}
	power := make([]gf2.Vec, n) // the rows of L^t, from the identity
	for i := range power {
		power[i] = gf2.Unit(n, i)
	}
	for tcyc := 0; tcyc <= 40; tcyc++ {
		for i := 0; i < n; i++ {
			if !s.Row(tcyc, i).Equal(power[i]) {
				t.Fatalf("step %d row %d: schedule != L^t", tcyc, i)
			}
		}
		// Row i of L·P is the XOR of the rows of P that row i of L selects.
		next := make([]gf2.Vec, n)
		for i := range next {
			next[i] = gf2.NewVec(n)
			for _, j := range L.Row(i).Ones() {
				next[i].Xor(power[j])
			}
		}
		power = next
	}
}

func TestSeedLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	mustNew(t, DefaultPoly(8)).Seed(gf2.NewVec(7))
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Poly{N: 3, Taps: []int{2}}); err == nil {
		t.Fatal("want error")
	}
}

// For the paper's key widths, the first two states must together have
// full rank n: every seed bit influences the key stream, which is the
// property that lets larger circuits pin down the unique seed.
func TestUnrolledStatesFullRank(t *testing.T) {
	for _, n := range []int{128, 144, 256, 368} {
		s, err := Unroll(DefaultPoly(n), 1)
		if err != nil {
			t.Fatal(err)
		}
		stacked := gf2.NewMat(0, 0)
		for tcyc := 0; tcyc <= 1; tcyc++ {
			for i := 0; i < n; i++ {
				stacked.AppendRow(s.Row(tcyc, i))
			}
		}
		if gf2.Rank(stacked) != n {
			t.Errorf("width %d: unrolled states rank-deficient", n)
		}
	}
}

func BenchmarkStep128(b *testing.B) {
	l := mustNew(b, DefaultPoly(128))
	l.Seed(gf2.Unit(128, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step()
	}
}

func BenchmarkUnroll128x3500(b *testing.B) {
	p := DefaultPoly(128)
	for i := 0; i < b.N; i++ {
		if _, err := Unroll(p, 3500); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNLFSRBasics(t *testing.T) {
	if _, err := NewNLFSR(DefaultPoly(8), nil); err == nil {
		t.Fatal("want error for no AND pairs")
	}
	if _, err := NewNLFSR(DefaultPoly(8), [][2]int{{0, 8}}); err == nil {
		t.Fatal("want error for out-of-range AND tap")
	}
}

// The NLFSR key stream must NOT be linear in the seed: superposition must
// fail for some seed pair, unlike the LFSR where it always holds.
func TestNLFSRIsNonlinear(t *testing.T) {
	n := 8
	r, _ := testNLFSR(t, n)
	stream := func(reg Register, seed gf2.Vec, cycles int) []gf2.Vec {
		reg.Seed(seed)
		var out []gf2.Vec
		for c := 0; c < cycles; c++ {
			out = append(out, reg.View().Clone())
			reg.Step()
		}
		return out
	}
	rng := rand.New(rand.NewSource(77))
	linearEverywhere := true
	for trial := 0; trial < 50 && linearEverywhere; trial++ {
		s1, s2 := randSeed(rng, n), randSeed(rng, n)
		sum := s1.XorInto(s2)
		a := stream(r, s1, 20)
		b := stream(r, s2, 20)
		c := stream(r, sum, 20)
		for i := range a {
			if !a[i].XorInto(b[i]).Equal(c[i]) {
				linearEverywhere = false
				break
			}
		}
	}
	if linearEverywhere {
		t.Fatal("NLFSR stream is linear; AND terms ineffective")
	}
	// Control: the LFSR must satisfy superposition everywhere.
	l := mustNew(t, DefaultPoly(n))
	for trial := 0; trial < 20; trial++ {
		s1, s2 := randSeed(rng, n), randSeed(rng, n)
		sum := s1.XorInto(s2)
		a := stream(l, s1, 20)
		b := stream(l, s2, 20)
		c := stream(l, sum, 20)
		for i := range a {
			if !a[i].XorInto(b[i]).Equal(c[i]) {
				t.Fatal("LFSR failed superposition")
			}
		}
	}
}

func TestNLFSRSeedPanics(t *testing.T) {
	r, _ := testNLFSR(t, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	r.Seed(gf2.NewVec(7))
}
