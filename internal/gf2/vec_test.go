package gf2

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, n int) Vec {
	v := NewVec(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i, true)
		}
	}
	return v
}

func TestVecSetGet(t *testing.T) {
	v := NewVec(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.Set(i, true)
	}
	for i := 0; i < 130; i++ {
		want := false
		for _, j := range idx {
			if i == j {
				want = true
			}
		}
		if v.Get(i) != want {
			t.Errorf("bit %d = %v, want %v", i, v.Get(i), want)
		}
	}
	if got := v.PopCount(); got != len(idx) {
		t.Errorf("PopCount = %d, want %d", got, len(idx))
	}
	v.Set(64, false)
	if v.Get(64) {
		t.Error("clearing bit 64 failed")
	}
}

func TestVecOutOfRangePanics(t *testing.T) {
	v := NewVec(10)
	for name, fn := range map[string]func(){
		"Get(10)":  func() { v.Get(10) },
		"Get(-1)":  func() { v.Get(-1) },
		"Set(10)":  func() { v.Set(10, true) },
		"Flip(-3)": func() { v.Flip(-3) },
	} {
		func() {
			defer func() {
				err, ok := recover().(error)
				if !ok || !strings.Contains(err.Error(), "out of range [0,10)") {
					t.Fatalf("%s: panic %v, want an out-of-range error", name, err)
				}
			}()
			fn()
		}()
	}
}

// Shift must equal the per-bit shift it stands for, across word
// boundaries, and keep the bits above the length clear so Equal and
// PopCount stay exact.
func TestVecShift(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 5, 63, 64, 65, 127, 128, 129, 200} {
		v := randVec(rng, n)
		v.Set(n-1, true)
		for step := 0; step < 2*n; step++ {
			in := rng.Intn(2) == 1
			want := NewVec(n)
			for i := 1; i < n; i++ {
				want.Set(i, v.Get(i-1))
			}
			want.Set(0, in)
			v.Shift(in)
			if !v.Equal(want) || v.PopCount() != want.PopCount() {
				t.Fatalf("n=%d step %d: Shift gave %s, want %s", n, step, v, want)
			}
		}
	}
}

func TestVecXorSelfInverse(t *testing.T) {
	f := func(a, b []bool) bool {
		if len(a) > len(b) {
			a = a[:len(b)]
		} else {
			b = b[:len(a)]
		}
		va, vb := FromBools(a), FromBools(b)
		w := va.XorInto(vb)
		w.Xor(vb)
		return w.Equal(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecDotLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		a, b, c := randVec(rng, n), randVec(rng, n), randVec(rng, n)
		// (a^b)·c == a·c ^ b·c
		lhs := a.XorInto(b).Dot(c)
		rhs := a.Dot(c) != b.Dot(c)
		if lhs != rhs {
			t.Fatalf("n=%d: dot not linear", n)
		}
	}
}

func TestVecOnesAndFirstSet(t *testing.T) {
	v := NewVec(200)
	for _, i := range []int{3, 64, 199} {
		v.Set(i, true)
	}
	ones := v.Ones()
	if len(ones) != 3 || ones[0] != 3 || ones[1] != 64 || ones[2] != 199 {
		t.Errorf("Ones = %v", ones)
	}
}

func TestVecBoolsRoundTrip(t *testing.T) {
	f := func(bs []bool) bool {
		v := FromBools(bs)
		got := v.Bools()
		if len(got) != len(bs) {
			return false
		}
		for i := range bs {
			if got[i] != bs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecString(t *testing.T) {
	v := NewVec(5)
	v.Set(1, true)
	v.Set(4, true)
	if got := v.String(); got != "01001" {
		t.Errorf("String = %q, want 01001", got)
	}
}

func TestVecCloneIndependent(t *testing.T) {
	v := NewVec(70)
	v.Set(69, true)
	w := v.Clone()
	w.Set(0, true)
	if v.Get(0) {
		t.Error("Clone aliases original")
	}
	if !w.Get(69) {
		t.Error("Clone lost bit")
	}
}
