// Package lfsr models the Fibonacci linear feedback shift registers that
// dynamic scan locking defenses (DOS, EFF-Dyn) use as their PRNG.
//
// Two views of the same register are provided and kept consistent by
// construction:
//
//   - a concrete LFSR that steps a bit state as words (what the chip
//     does), and
//   - a symbolic Schedule holding every state bit of every step as a
//     GF(2) linear expression over the seed bits (what the attacker
//     models, paper Fig. 4 / Algorithm 1). Because the register only
//     shifts, the schedule of N-bit states over T steps is one sequence
//     of N+T rows.
//
// The attacker is assumed to know the feedback polynomial — it is read off
// the reverse-engineered netlist — but not the seed stored in tamper-proof
// memory.
package lfsr

import (
	"fmt"
	"sort"

	"dynunlock/internal/gf2"
)

// Poly describes a Fibonacci LFSR feedback polynomial by its tap positions,
// 1-indexed: tap t refers to state bit t-1. On every step the feedback bit
// (XOR of all tapped bits) is shifted into position 0 while every other bit
// moves one position up.
type Poly struct {
	N    int   // register width in bits
	Taps []int // 1-indexed tap positions, each in [1, N]
}

// Validate checks structural sanity of the polynomial.
func (p Poly) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("lfsr: width %d must be positive", p.N)
	}
	if len(p.Taps) == 0 {
		return fmt.Errorf("lfsr: no taps")
	}
	seen := make(map[int]bool, len(p.Taps))
	hasLast := false
	for _, t := range p.Taps {
		if t < 1 || t > p.N {
			return fmt.Errorf("lfsr: tap %d out of range [1,%d]", t, p.N)
		}
		if seen[t] {
			return fmt.Errorf("lfsr: duplicate tap %d", t)
		}
		seen[t] = true
		if t == p.N {
			hasLast = true
		}
	}
	if !hasLast {
		// Without a tap on the last bit the register is not a permutation of
		// its state space (the transition matrix is singular) and the
		// effective width is smaller than N.
		return fmt.Errorf("lfsr: taps must include position N=%d", p.N)
	}
	return nil
}

// xapp052 lists maximal-length tap sets for selected widths (Fibonacci
// form), following the well-known Xilinx XAPP052 table. Widths not present
// fall back to deterministic synthetic taps; the DynUnlock attack does not
// require maximal length, only linearity and an invertible transition.
var xapp052 = map[int][]int{
	2: {2, 1}, 3: {3, 2}, 4: {4, 3}, 5: {5, 3}, 6: {6, 5}, 7: {7, 6},
	8: {8, 6, 5, 4}, 9: {9, 5}, 10: {10, 7}, 11: {11, 9}, 12: {12, 6, 4, 1},
	13: {13, 4, 3, 1}, 14: {14, 5, 3, 1}, 15: {15, 14}, 16: {16, 15, 13, 4},
	17: {17, 14}, 18: {18, 11}, 19: {19, 6, 2, 1}, 20: {20, 17},
	21: {21, 19}, 22: {22, 21}, 23: {23, 18}, 24: {24, 23, 22, 17},
	25: {25, 22}, 26: {26, 6, 2, 1}, 27: {27, 5, 2, 1}, 28: {28, 25},
	29: {29, 27}, 30: {30, 6, 4, 1}, 31: {31, 28}, 32: {32, 22, 2, 1},
	33: {33, 20}, 40: {40, 38, 21, 19}, 48: {48, 47, 21, 20},
	64: {64, 63, 61, 60}, 96: {96, 94, 49, 47}, 128: {128, 126, 101, 99},
}

// DefaultPoly returns a feedback polynomial for width n: a published
// maximal-length tap set when one is tabulated, otherwise a deterministic
// four-tap fallback (always including taps n and 1, so the transition matrix
// is invertible). The choice is stable across runs.
func DefaultPoly(n int) Poly {
	if taps, ok := xapp052[n]; ok {
		t := append([]int(nil), taps...)
		sort.Sort(sort.Reverse(sort.IntSlice(t)))
		return Poly{N: n, Taps: t}
	}
	if n == 1 {
		return Poly{N: 1, Taps: []int{1}}
	}
	// Deterministic fallback: n, two interior taps spread by a width-derived
	// stride, and 1. Duplicates are collapsed.
	a := 1 + (n*5)/8
	b := 1 + (n*3)/8
	set := map[int]bool{n: true, 1: true, a: true, b: true}
	taps := make([]int, 0, len(set))
	for t := range set {
		taps = append(taps, t)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(taps)))
	return Poly{N: n, Taps: taps}
}

// LFSR is a concrete Fibonacci LFSR instance.
type LFSR struct {
	poly  Poly
	state gf2.Vec
}

// New creates an LFSR with the given polynomial, seeded to all zeros.
// Note the all-zero seed is a fixed point for XOR feedback; callers locking
// a design should seed with a nonzero value (see Seed).
func New(p Poly) (*LFSR, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &LFSR{poly: p, state: gf2.NewVec(p.N)}, nil
}

// Seed resets the register state to the given seed. The seed length must
// equal the register width.
func (l *LFSR) Seed(seed gf2.Vec) {
	if seed.Len() != l.poly.N {
		panic(fmt.Sprintf("lfsr: seed length %d, want %d", seed.Len(), l.poly.N))
	}
	l.state = seed.Clone()
}

// View returns the current state in place (read-only).
func (l *LFSR) View() gf2.Vec { return l.state }

// Step advances the register by one clock cycle: the feedback bit shifts
// into bit 0 as every state word moves up one position.
func (l *LFSR) Step() {
	fb := false
	for _, t := range l.poly.Taps {
		if l.state.Get(t - 1) {
			fb = !fb
		}
	}
	l.state.Shift(fb)
}

// Schedule is the symbolic key schedule of a register over its first
// steps+1 states: each state bit as a GF(2) row over the seed bits. A
// Fibonacci register moves bit i-1 into bit i on every step, so bit i
// after t steps is bit 0 after t-i steps, or seed bit i-t while t < i. The
// whole schedule is therefore one sequence of N+steps rows: the N seed
// unit rows, then one feedback row per step, each the XOR of the rows the
// taps read.
type Schedule struct {
	n, steps int
	rows     []gf2.Vec // rows[t-i+n-1] = bit i after t steps
}

// Unroll returns the symbolic schedule of p's register for steps
// 0..steps. Step 0 is the seed identity.
func Unroll(p Poly, steps int) (*Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if steps < 0 {
		return nil, fmt.Errorf("lfsr: negative step count %d", steps)
	}
	n := p.N
	s := &Schedule{n: n, steps: steps, rows: make([]gf2.Vec, n+steps)}
	for m := 0; m < n; m++ {
		s.rows[m] = gf2.Unit(n, n-1-m)
	}
	// Bit 0 after u steps is the feedback of the state after u-1 steps:
	// tap t reads bit t-1 there, which is rows[m-t] for m = u+n-1.
	for m := n; m < n+steps; m++ {
		fb := gf2.NewVec(n)
		for _, t := range p.Taps {
			fb.Xor(s.rows[m-t])
		}
		s.rows[m] = fb
	}
	return s, nil
}

// Row returns the seed expression of state bit i after t steps, for
// 0 ≤ t ≤ steps. The row is shared by every (t, i) with the same t-i, so
// callers must not modify it.
func (s *Schedule) Row(t, i int) gf2.Vec {
	if t < 0 || t > s.steps || i < 0 || i >= s.n {
		panic(fmt.Sprintf("lfsr: schedule row (%d, %d) outside [0,%d]×[0,%d)", t, i, s.steps, s.n))
	}
	return s.rows[t-i+s.n-1]
}
