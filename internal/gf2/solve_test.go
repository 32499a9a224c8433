package gf2

import (
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Intn(2) == 1 {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

// identity returns the n×n identity matrix.
func identity(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, true)
	}
	return m
}

func TestIdentityRank(t *testing.T) {
	for _, n := range []int{1, 2, 17, 64, 65} {
		if r := Rank(identity(n)); r != n {
			t.Errorf("rank(I_%d) = %d", n, r)
		}
	}
}

func TestRankZeroMatrix(t *testing.T) {
	if r := Rank(NewMat(5, 7)); r != 0 {
		t.Errorf("rank(0) = %d", r)
	}
}

func TestMulVecAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		m := randMat(rng, rows, cols)
		x := randVec(rng, cols)
		y := m.MulVec(x)
		for i := 0; i < rows; i++ {
			want := false
			for j := 0; j < cols; j++ {
				if m.Row(i).Get(j) && x.Get(j) {
					want = !want
				}
			}
			if y.Get(i) != want {
				t.Fatalf("MulVec row %d mismatch", i)
			}
		}
	}
}

// Solve on a consistent system must return a genuine solution.
func TestSolveConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		m := randMat(rng, rows, cols)
		secret := randVec(rng, cols)
		rhs := m.MulVec(secret)
		x, ok := Solve(m, rhs)
		if !ok {
			t.Fatal("consistent system reported inconsistent")
		}
		if !m.MulVec(x).Equal(rhs) {
			t.Fatal("Solve returned a non-solution")
		}
	}
}

func TestSolveInconsistent(t *testing.T) {
	// x0 = 0 and x0 = 1 simultaneously.
	m := NewMat(2, 1)
	m.Set(0, 0, true)
	m.Set(1, 0, true)
	rhs := NewVec(2)
	rhs.Set(1, true)
	if _, ok := Solve(m, rhs); ok {
		t.Fatal("inconsistent system reported solvable")
	}
	if sols, ok := EnumerateSolutions(m, rhs, 0); ok || sols != nil {
		t.Fatalf("EnumerateSolutions = %v,%v on an inconsistent system", sols, ok)
	}
}

// Every nullspace basis vector must satisfy m·v = 0, be nonzero, and the
// basis must have dimension cols - rank.
func TestNullspaceBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		m := randMat(rng, rows, cols)
		basis := NullspaceBasis(m)
		if len(basis) != cols-Rank(m) {
			t.Fatalf("basis dim %d, want %d", len(basis), cols-Rank(m))
		}
		for _, v := range basis {
			if v.IsZero() {
				t.Fatal("zero vector in basis")
			}
			if !m.MulVec(v).IsZero() {
				t.Fatal("basis vector not in kernel")
			}
		}
		// Linear independence: the basis matrix must have full rank.
		stacked := NewMat(0, 0)
		for _, v := range basis {
			stacked.AppendRow(v)
		}
		if Rank(stacked) != len(basis) {
			t.Fatal("basis not independent")
		}
	}
}

func TestSolutionCountMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := randMat(rng, rows, cols)
		secret := randVec(rng, cols)
		rhs := m.MulVec(secret)
		lg := cols - Rank(m)
		sols, ok := EnumerateSolutions(m, rhs, 0)
		if !ok {
			t.Fatal("consistent system reported inconsistent")
		}
		if len(sols) != 1<<lg {
			t.Fatalf("got %d solutions, want 2^%d", len(sols), lg)
		}
		seen := map[string]bool{}
		foundSecret := false
		for _, s := range sols {
			if !m.MulVec(s).Equal(rhs) {
				t.Fatal("enumerated non-solution")
			}
			key := s.String()
			if seen[key] {
				t.Fatal("duplicate solution")
			}
			seen[key] = true
			if s.Equal(secret) {
				foundSecret = true
			}
		}
		if !foundSecret {
			t.Fatal("secret not among enumerated solutions")
		}
	}
}

func TestEnumerateSolutionsLimit(t *testing.T) {
	m := NewMat(1, 6) // rank 1 -> 2^5 solutions
	m.Set(0, 0, true)
	sols, ok := EnumerateSolutions(m, NewVec(1), 7)
	if !ok || len(sols) != 7 {
		t.Fatalf("limit: got %d,%v", len(sols), ok)
	}
}

func TestVStack(t *testing.T) {
	a := identity(2)
	b := NewMat(1, 2)
	b.Set(0, 0, true)
	b.Set(0, 1, true)
	s := VStack(a, b)
	if s.Rows() != 3 || s.Row(2).Len() != 2 {
		t.Fatalf("vstack dims %dx%d", s.Rows(), s.Row(2).Len())
	}
	if Rank(s) != 2 {
		t.Fatalf("rank = %d, want 2", Rank(s))
	}
}

func TestReducePivotsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randMat(rng, 20, 20)
	e := Reduce(m)
	for i := 1; i < len(e.Pivots); i++ {
		if e.Pivots[i] <= e.Pivots[i-1] {
			t.Fatal("pivots not strictly increasing")
		}
	}
	if len(e.Pivots)+len(e.FreeCols) != 20 {
		t.Fatal("pivot + free columns != cols")
	}
}

func BenchmarkRank256(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m := randMat(rng, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Rank(m)
	}
}
