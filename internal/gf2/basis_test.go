package gf2

import (
	"math/rand"
	"testing"
)

// The incremental basis must agree with batch Gaussian elimination on
// rank and consistency, for random systems, at every prefix.
func TestBasisMatchesBatchReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		cols := 1 + rng.Intn(12)
		nrows := rng.Intn(2 * cols)
		// Half the trials use a consistent system (rhs derived from a
		// planted solution), half use random rhs that may conflict.
		var planted Vec
		consistentOnly := trial%2 == 0
		if consistentOnly {
			planted = NewVec(cols)
			for i := 0; i < cols; i++ {
				planted.Set(i, rng.Intn(2) == 1)
			}
		}

		b := NewBasis(cols)
		m := NewMat(0, cols)
		rhs := NewVec(nrows)
		for r := 0; r < nrows; r++ {
			row := NewVec(cols)
			for i := 0; i < cols; i++ {
				row.Set(i, rng.Intn(2) == 1)
			}
			var bit bool
			if consistentOnly {
				bit = row.Dot(planted)
			} else {
				bit = rng.Intn(2) == 1
			}
			prevRank := b.Rank()
			b.Insert(row, bit)
			m.AppendRow(row)
			rhs.Set(r, bit)

			wantRank := Rank(m)
			if b.Rank() != wantRank {
				t.Fatalf("trial %d row %d: incremental rank %d, batch rank %d", trial, r, b.Rank(), wantRank)
			}
			if b.Rank() < prevRank {
				t.Fatalf("trial %d row %d: rank decreased", trial, r)
			}
			_, wantOK := Solve(m, rhsPrefix(rhs, r+1))
			if b.Inconsistent() == wantOK {
				t.Fatalf("trial %d row %d: incremental inconsistent=%v, batch consistent=%v", trial, r, b.Inconsistent(), wantOK)
			}
		}
	}
}

// Rank after inserting a fixed row multiset must not depend on order.
func TestBasisRankOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cols := 10
	rows := make([]Vec, 15)
	for i := range rows {
		rows[i] = NewVec(cols)
		for j := 0; j < cols; j++ {
			rows[i].Set(j, rng.Intn(2) == 1)
		}
	}
	ref := -1
	for perm := 0; perm < 20; perm++ {
		order := rng.Perm(len(rows))
		b := NewBasis(cols)
		for _, i := range order {
			b.Insert(rows[i], false)
		}
		if ref < 0 {
			ref = b.Rank()
		} else if b.Rank() != ref {
			t.Fatalf("perm %d: rank %d, want %d", perm, b.Rank(), ref)
		}
	}
}

func TestBasisInconsistent(t *testing.T) {
	b := NewBasis(3)
	row := FromBools([]bool{true, true, false})
	if grew, ok := b.Insert(row, true); !grew || !ok {
		t.Fatalf("first insert: grew=%v ok=%v", grew, ok)
	}
	// Same row, opposite rhs: dependent and conflicting.
	if grew, ok := b.Insert(row, false); grew || ok {
		t.Fatalf("conflicting insert: grew=%v ok=%v, want false,false", grew, ok)
	}
	if !b.Inconsistent() {
		t.Fatal("basis should be inconsistent")
	}
}

func rhsPrefix(rhs Vec, n int) Vec {
	out := NewVec(n)
	for i := 0; i < n; i++ {
		out.Set(i, rhs.Get(i))
	}
	return out
}
