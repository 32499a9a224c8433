// Package gf2 implements linear algebra over GF(2): packed bit vectors,
// dense boolean matrices, Gaussian elimination, rank, nullspace bases, and
// linear-system solving.
//
// DynUnlock relies on the fact that a dynamically obfuscated scan session is
// affine over GF(2) in the LFSR seed. This package provides the machinery to
// express every dynamic key bit, every scan-in mask, and every scan-out mask
// as a GF(2) linear combination of seed bits, and to predict the number of
// indistinguishable seed candidates as 2^(k - rank).
package gf2

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vec is a packed bit vector over GF(2). The zero value is an empty vector.
// Bit i of the vector is stored in word i/64 at position i%64.
type Vec struct {
	n     int
	words []uint64
}

// NewVec returns an all-zero vector of length n.
func NewVec(n int) Vec {
	if n < 0 {
		panic("gf2: negative vector length")
	}
	return Vec{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromBools builds a vector from a bool slice.
func FromBools(bs []bool) Vec {
	v := NewVec(len(bs))
	for i, b := range bs {
		if b {
			v.Set(i, true)
		}
	}
	return v
}

// Unit returns the length-n vector with only bit i set.
func Unit(n, i int) Vec {
	v := NewVec(n)
	v.Set(i, true)
	return v
}

// Len returns the number of bits in v.
func (v Vec) Len() int { return v.n }

// rangeError is the panic value of a bit index outside a vector. Get, Set
// and Flip build it instead of formatting the message, which keeps them
// small enough to inline.
type rangeError struct{ i, n int }

func (e rangeError) Error() string {
	return fmt.Sprintf("gf2: index %d out of range [0,%d)", e.i, e.n)
}

// Get returns bit i.
func (v Vec) Get(i int) bool {
	if uint(i) >= uint(v.n) {
		panic(rangeError{i, v.n})
	}
	return v.words[uint(i)/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Set sets bit i to b.
func (v Vec) Set(i int, b bool) {
	if uint(i) >= uint(v.n) {
		panic(rangeError{i, v.n})
	}
	mask := uint64(1) << (uint(i) % wordBits)
	if b {
		v.words[uint(i)/wordBits] |= mask
	} else {
		v.words[uint(i)/wordBits] &^= mask
	}
}

// Flip toggles bit i.
func (v Vec) Flip(i int) {
	if uint(i) >= uint(v.n) {
		panic(rangeError{i, v.n})
	}
	v.words[uint(i)/wordBits] ^= 1 << (uint(i) % wordBits)
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	w := Vec{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Xor sets v ^= w in place. Both vectors must have the same length.
func (v Vec) Xor(w Vec) {
	if v.n != w.n {
		panic(fmt.Sprintf("gf2: length mismatch %d vs %d", v.n, w.n))
	}
	for i := range v.words {
		v.words[i] ^= w.words[i]
	}
}

// Shift moves every bit of v up one position, bit i to bit i+1, word by
// word: the top bit drops out and bit 0 becomes in. It is one clock edge of
// a shift register.
func (v Vec) Shift(in bool) {
	if v.n == 0 {
		return
	}
	var carry uint64
	if in {
		carry = 1
	}
	for i, w := range v.words {
		v.words[i] = w<<1 | carry
		carry = w >> (wordBits - 1)
	}
	if r := uint(v.n) % wordBits; r != 0 {
		v.words[len(v.words)-1] &= 1<<r - 1
	}
}

// XorInto returns a fresh vector equal to v ^ w.
func (v Vec) XorInto(w Vec) Vec {
	out := v.Clone()
	out.Xor(w)
	return out
}

// IsZero reports whether every bit of v is zero.
func (v Vec) IsZero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and w have identical length and contents.
func (v Vec) Equal(w Vec) bool {
	if v.n != w.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != w.words[i] {
			return false
		}
	}
	return true
}

// PopCount returns the number of set bits.
func (v Vec) PopCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Dot returns the GF(2) inner product of v and w (parity of v AND w).
func (v Vec) Dot(w Vec) bool {
	if v.n != w.n {
		panic(fmt.Sprintf("gf2: length mismatch %d vs %d", v.n, w.n))
	}
	var acc uint64
	for i := range v.words {
		acc ^= v.words[i] & w.words[i]
	}
	return bits.OnesCount64(acc)%2 == 1
}

// Ones returns the indices of all set bits in ascending order.
func (v Vec) Ones() []int {
	out := make([]int, 0, v.PopCount())
	for i, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			idx := i*wordBits + b
			if idx < v.n {
				out = append(out, idx)
			}
			w &= w - 1
		}
	}
	return out
}

// Bools expands v into a bool slice.
func (v Vec) Bools() []bool {
	out := make([]bool, v.n)
	for i := range out {
		out[i] = v.Get(i)
	}
	return out
}

// String renders the vector as a bit string, LSB (index 0) first.
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
