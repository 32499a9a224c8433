package gf2

import "fmt"

// Basis is an incremental row-echelon basis over GF(2) with an attached
// right-hand side: a streaming counterpart to Reduce for consumers that
// receive constraint rows one at a time (one oracle DIP at a time) and
// want the running rank after each insertion without re-eliminating the
// whole system.
//
// Each stored row is kept with its pivot (lowest set bit after reduction
// against earlier rows), so Insert is O(rank · words) and the final rank
// is independent of insertion order — the row space determines the basis
// size, not the arrival sequence.
type Basis struct {
	cols   int
	rows   []Vec  // reduced rows, one per pivot
	rhs    []bool // right-hand side bit per stored row
	pivot  []int  // pivot column per stored row (ascending not required)
	incons bool   // an inserted row reduced to 0 = 1
}

// NewBasis returns an empty basis over vectors of length cols.
func NewBasis(cols int) *Basis {
	if cols < 0 {
		panic("gf2: negative basis width")
	}
	return &Basis{cols: cols}
}

// Rank returns the number of linearly independent rows inserted so far.
func (b *Basis) Rank() int { return len(b.rows) }

// Inconsistent reports whether some inserted row reduced to the
// impossible constraint 0 = 1 (the affine system has no solution).
func (b *Basis) Inconsistent() bool { return b.incons }

// Insert adds the constraint row·x = rhs to the system. It returns
// (true, _) when the row was linearly independent of the basis (rank
// grew by one) and (_, true) when the row was consistent with the
// system. A dependent row with a conflicting right-hand side marks the
// whole basis inconsistent. row is not modified.
func (b *Basis) Insert(row Vec, rhs bool) (grew, consistent bool) {
	if row.Len() != b.cols {
		panic(fmt.Sprintf("gf2: row length %d, want %d", row.Len(), b.cols))
	}
	r := row.Clone()
	for i, br := range b.rows {
		p := b.pivot[i]
		if r.Get(p) {
			r.Xor(br)
			if b.rhs[i] {
				rhs = !rhs
			}
		}
	}
	p := r.FirstSet()
	if p < 0 {
		if rhs {
			b.incons = true
			return false, false
		}
		return false, true
	}
	b.rows = append(b.rows, r)
	b.rhs = append(b.rhs, rhs)
	b.pivot = append(b.pivot, p)
	return true, true
}
