package gf2

import "fmt"

// Echelon holds the result of Gaussian elimination on a matrix (optionally
// augmented with a right-hand side).
type Echelon struct {
	// R is the reduced row-echelon form of the input matrix.
	R *Mat
	// RHS is the correspondingly reduced right-hand side (nil if none given).
	RHS Vec
	// Pivots maps echelon row -> pivot column, ascending.
	Pivots []int
	// FreeCols lists the non-pivot columns, ascending.
	FreeCols []int
}

// Rank returns the rank of the reduced matrix.
func (e *Echelon) Rank() int { return len(e.Pivots) }

// Reduce computes the reduced row-echelon form of m. m is not modified.
func Reduce(m *Mat) *Echelon {
	e, _ := reduce(m, Vec{}, false)
	return e
}

// reduce performs Gauss-Jordan elimination. If withRHS is true, rhs is
// carried along and the second return reports whether the system m·x = rhs
// is consistent.
func reduce(m *Mat, rhs Vec, withRHS bool) (*Echelon, bool) {
	r := m.Clone()
	var b Vec
	if withRHS {
		if rhs.Len() != m.rows {
			panic(fmt.Sprintf("gf2: rhs length %d, want %d", rhs.Len(), m.rows))
		}
		b = rhs.Clone()
	}
	pivots := make([]int, 0, min(r.rows, r.cols))
	row := 0
	for col := 0; col < r.cols && row < r.rows; col++ {
		// Find a pivot in this column at or below `row`.
		sel := -1
		for i := row; i < r.rows; i++ {
			if r.data[i].Get(col) {
				sel = i
				break
			}
		}
		if sel < 0 {
			continue
		}
		r.data[row], r.data[sel] = r.data[sel], r.data[row]
		if withRHS {
			vr, vs := b.Get(row), b.Get(sel)
			b.Set(row, vs)
			b.Set(sel, vr)
		}
		// Eliminate the column everywhere else (Gauss-Jordan).
		for i := 0; i < r.rows; i++ {
			if i != row && r.data[i].Get(col) {
				r.data[i].Xor(r.data[row])
				if withRHS && b.Get(row) {
					b.Flip(i)
				}
			}
		}
		pivots = append(pivots, col)
		row++
	}
	consistent := true
	if withRHS {
		for i := row; i < r.rows; i++ {
			if b.Get(i) {
				consistent = false
				break
			}
		}
	}
	isPivot := make(map[int]bool, len(pivots))
	for _, p := range pivots {
		isPivot[p] = true
	}
	free := make([]int, 0, r.cols-len(pivots))
	for c := 0; c < r.cols; c++ {
		if !isPivot[c] {
			free = append(free, c)
		}
	}
	e := &Echelon{R: r, Pivots: pivots, FreeCols: free}
	if withRHS {
		e.RHS = b
	}
	return e, consistent
}

// Rank returns the GF(2) rank of m.
func Rank(m *Mat) int { return Reduce(m).Rank() }

// Solve finds one solution x of m·x = rhs, returning ok=false if the system
// is inconsistent. Free variables are set to zero.
func Solve(m *Mat, rhs Vec) (x Vec, ok bool) {
	e, consistent := reduce(m, rhs, true)
	if !consistent {
		return Vec{}, false
	}
	x = NewVec(m.cols)
	for i, p := range e.Pivots {
		if e.RHS.Get(i) {
			x.Set(p, true)
		}
	}
	return x, true
}

// NullspaceBasis returns a basis for the kernel {x : m·x = 0}. The returned
// slice has length Cols(m) - Rank(m).
func NullspaceBasis(m *Mat) []Vec {
	e := Reduce(m)
	basis := make([]Vec, 0, len(e.FreeCols))
	for _, fc := range e.FreeCols {
		v := NewVec(m.cols)
		v.Set(fc, true)
		// For each pivot row, the pivot variable equals the XOR of the free
		// variables present in that row.
		for i, p := range e.Pivots {
			if e.R.data[i].Get(fc) {
				v.Set(p, true)
			}
		}
		basis = append(basis, v)
	}
	return basis
}

// EnumerateSolutions returns all solutions of m·x = rhs up to limit entries
// (limit <= 0 means unlimited — beware exponential blowup). The boolean
// reports consistency.
func EnumerateSolutions(m *Mat, rhs Vec, limit int) ([]Vec, bool) {
	x0, ok := Solve(m, rhs)
	if !ok {
		return nil, false
	}
	basis := NullspaceBasis(m)
	sols := []Vec{x0}
	for _, bv := range basis {
		cur := len(sols)
		for i := 0; i < cur; i++ {
			if limit > 0 && len(sols) >= limit {
				return sols, true
			}
			sols = append(sols, sols[i].XorInto(bv))
		}
	}
	return sols, true
}
