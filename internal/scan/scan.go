// Package scan defines the scan-chain geometry and cycle-accurate timing
// shared by the locked-chip simulation (internal/oracle) and the attacker's
// combinational model (internal/core).
//
// Conventions (matching Fig. 1 of the paper):
//
//   - The chain has flops 0 … n-1. Scan-in (SI) feeds flop 0; scan-out (SO)
//     reads flop n-1. Chain flop i is DFF i of the netlist.
//   - A key gate "after flop p" (1-indexed, p ∈ 1…n-1) sits on link p: the
//     wire from flop p-1 into flop p. The moving bit is XORed with one bit
//     of the key register as it crosses the link.
//   - A test session is: reset, n shift-in cycles (global cycles 0…n-1),
//     one capture cycle (cycle n), n shift-out cycles (cycles n+1…2n).
//     The shift edge at the end of cycle t applies the key value of cycle
//     t. The capture edge (cycle n) loads next-state; key gates do not
//     touch scan data then (SE is low and the gates sit on the scan path
//     only).
//   - The bit destined for chain flop j is presented at SI during cycle
//     n-1-j and crosses link ℓ (ℓ ≤ j) at cycle n-1-j+ℓ. The captured bit
//     of flop j is observed at SO during cycle 2n-j and crosses link ℓ
//     (ℓ > j) at cycle n+ℓ-j.
//
// The oracle simulates sessions cycle by cycle; the attacker's model uses
// the closed-form mask terms below. Property tests assert the two agree
// bit for bit, which is the correctness core of Algorithm 1.
package scan

import "fmt"

// Policy selects how the key register evolves, covering the three defense
// families the paper discusses.
type Policy int8

// Key-update policies.
const (
	// Static: the key register holds the secret key and never changes
	// (EFF, Karmakar 2018 — broken by ScanSAT).
	Static Policy = iota
	// PerPattern: the key register is an LFSR stepping once every Period
	// test patterns (DOS, Wang 2017 — broken by dynamic ScanSAT/this work).
	PerPattern
	// PerCycle: the key register is an LFSR stepping every clock cycle
	// (EFF-Dyn, Karmakar 2019 — the paper's target).
	PerCycle
)

// String names the policy after the defense it models.
func (p Policy) String() string {
	switch p {
	case Static:
		return "static(EFF)"
	case PerPattern:
		return "per-pattern(DOS)"
	case PerCycle:
		return "per-cycle(EFF-Dyn)"
	default:
		return fmt.Sprintf("Policy(%d)", int8(p))
	}
}

// Steps returns how many LFSR steps separate the key value used at global
// cycle `cycle` of pattern `patIdx` from the session-start register value.
// Period is the per-pattern update period p (ignored unless PerPattern).
func (p Policy) Steps(patIdx, cycle, period int) int {
	switch p {
	case Static:
		return 0
	case PerPattern:
		if period <= 0 {
			period = 1
		}
		return patIdx / period
	case PerCycle:
		return cycle
	default:
		panic(fmt.Sprintf("scan: unknown policy %d", int8(p)))
	}
}

// KeyGate is one XOR gate on the scan path.
type KeyGate struct {
	Link   int // 1…n-1: on the wire from flop Link-1 into flop Link
	KeyBit int // which bit of the key register drives this gate
}

// Chain describes an obfuscated scan chain.
type Chain struct {
	Length int // number of scan flops n
	Gates  []KeyGate
}

// Validate checks gate positions and key-bit indices against the chain
// length and key width, and rejects two gates with the same link and key
// bit: they XOR the same bit onto the same wire, so they cancel and leave
// that link unlocked.
func (c *Chain) Validate(keyBits int) error {
	if c.Length < 2 {
		return fmt.Errorf("scan: chain length %d too short", c.Length)
	}
	seen := make(map[KeyGate]bool, len(c.Gates))
	for _, g := range c.Gates {
		if g.Link < 1 || g.Link >= c.Length {
			return fmt.Errorf("scan: key gate link %d out of range [1,%d)", g.Link, c.Length)
		}
		if g.KeyBit < 0 || g.KeyBit >= keyBits {
			return fmt.Errorf("scan: key bit %d out of range [0,%d)", g.KeyBit, keyBits)
		}
		if seen[g] {
			return fmt.Errorf("scan: two key gates on link %d use key bit %d and cancel", g.Link, g.KeyBit)
		}
		seen[g] = true
	}
	return nil
}

// Term is one XOR contribution to a scan bit: key register bit KeyBit, as
// valued at global cycle Cycle.
type Term struct {
	Cycle  int
	KeyBit int
}

// AppendInMaskTerms appends to dst the key terms XORed onto the bit
// destined for chain flop j during shift-in: every key gate at link ℓ ≤ j
// contributes its key bit at cycle n-1-j+ℓ. Terms come in gate order; the
// order of an XOR does not matter. A caller building every flop's mask can
// reuse one buffer.
func (c *Chain) AppendInMaskTerms(dst []Term, j int) []Term {
	c.checkFlop(j)
	for _, g := range c.Gates {
		if g.Link <= j {
			dst = append(dst, Term{Cycle: c.Length - 1 - j + g.Link, KeyBit: g.KeyBit})
		}
	}
	return dst
}

// AppendOutMaskTerms appends to dst the key terms XORed onto the captured
// bit of chain flop j during shift-out: with one capture cycle, every key
// gate at link ℓ > j contributes its key bit at cycle n+ℓ-j. Terms come in
// gate order. A session with `captures` consecutive capture cycles (paper
// Sec. III-A's "new capture cycle" extension) delays shift-out by one cycle
// per extra capture, so every term cycle shifts by captures-1.
func (c *Chain) AppendOutMaskTerms(dst []Term, j, captures int) []Term {
	c.checkFlop(j)
	if captures < 1 {
		panic(fmt.Sprintf("scan: captures %d must be >= 1", captures))
	}
	for _, g := range c.Gates {
		if g.Link > j {
			dst = append(dst, Term{Cycle: c.Length + captures - 1 + g.Link - j, KeyBit: g.KeyBit})
		}
	}
	return dst
}

// SessionCyclesN returns the cycle count of a session with the given
// number of consecutive captures.
func (c *Chain) SessionCyclesN(captures int) int { return 2*c.Length + captures }

func (c *Chain) checkFlop(j int) {
	if j < 0 || j >= c.Length {
		panic(fmt.Sprintf("scan: flop %d out of range [0,%d)", j, c.Length))
	}
}

// SpreadGates places count key gates on distinct links spread evenly across
// the chain (wrapping key bits if count exceeds keyBits is the caller's
// choice; here gate i uses key bit i % keyBits). If count exceeds the
// number of links, links are reused with different key bits, which models
// stacked XOR gates on one wire.
func SpreadGates(length, count, keyBits int) []KeyGate {
	if length < 2 || count <= 0 || keyBits <= 0 {
		return nil
	}
	links := length - 1
	gates := make([]KeyGate, count)
	// Successive rounds offset the spread; i/links stays 0 while count ≤
	// links, so each gate then gets a link of its own.
	for i := range gates {
		gates[i] = KeyGate{Link: 1 + (i*links/count+i/links)%links, KeyBit: i % keyBits}
	}
	SeparatePairs(gates, length)
	return gates
}

// SeparatePairs moves each gate whose (link, key bit) pair an earlier gate
// already holds on to the next link, in chain order and wrapping, that
// does not hold it: two gates on one pair would cancel. No pair repeats
// while len(gates) ≤ (length−1) × keyBits, since before each gate fewer
// than length−1 gates hold its key bit.
func SeparatePairs(gates []KeyGate, length int) {
	links := length - 1
	placed := make(map[KeyGate]bool, len(gates))
	for i, g := range gates {
		link := g.Link
		for step := 1; placed[g] && step < links; step++ {
			g.Link = 1 + (link-1+step)%links
		}
		placed[g] = true
		gates[i] = g
	}
}
