package lfsr

import (
	"fmt"

	"dynunlock/internal/gf2"
)

// Register abstracts the PRNG driving a dynamic scan locking defense: both
// the linear LFSR the paper attacks and the nonlinear registers its
// Discussion section identifies as out of the attack's reach.
type Register interface {
	// Seed resets the state.
	Seed(gf2.Vec)
	// Step advances one clock cycle.
	Step()
	// View returns the current state in place, without copying it. The
	// caller must not write to it; Step updates it and Seed replaces it.
	View() gf2.Vec
}

// LFSR implements Register.
var _ Register = (*LFSR)(nil)

// NLFSR is a nonlinear feedback shift register: the feedback bit is the
// XOR of the linear taps plus AND terms over state-bit pairs, in the style
// of Grain-family stream ciphers. Its key stream is NOT a GF(2)-linear
// function of the seed, which defeats DynUnlock's combinational modeling
// (paper Sec. V: "Our attack cannot model such modules into their
// combinational logic equivalent").
type NLFSR struct {
	poly     Poly
	andPairs [][2]int // 0-indexed state-bit pairs ANDed into the feedback
	state    gf2.Vec
}

// NewNLFSR builds a nonlinear register from a linear base polynomial and a
// set of AND pairs (each index in [0, N)).
func NewNLFSR(p Poly, andPairs [][2]int) (*NLFSR, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(andPairs) == 0 {
		return nil, fmt.Errorf("lfsr: NLFSR needs at least one AND pair (use LFSR otherwise)")
	}
	for _, pr := range andPairs {
		for _, idx := range pr {
			if idx < 0 || idx >= p.N {
				return nil, fmt.Errorf("lfsr: AND tap %d out of range [0,%d)", idx, p.N)
			}
		}
	}
	pairs := make([][2]int, len(andPairs))
	copy(pairs, andPairs)
	return &NLFSR{poly: p, andPairs: pairs, state: gf2.NewVec(p.N)}, nil
}

// Seed resets the state.
func (r *NLFSR) Seed(seed gf2.Vec) {
	if seed.Len() != r.poly.N {
		panic(fmt.Sprintf("lfsr: seed length %d, want %d", seed.Len(), r.poly.N))
	}
	r.state = seed.Clone()
}

// View returns the current state in place (read-only).
func (r *NLFSR) View() gf2.Vec { return r.state }

// Step advances one cycle.
func (r *NLFSR) Step() {
	fb := false
	for _, t := range r.poly.Taps {
		if r.state.Get(t - 1) {
			fb = !fb
		}
	}
	for _, pr := range r.andPairs {
		if r.state.Get(pr[0]) && r.state.Get(pr[1]) {
			fb = !fb
		}
	}
	r.state.Shift(fb)
}
