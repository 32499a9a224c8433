// Package oracle simulates the working chip the attacker owns: a scan-
// locked sequential circuit with the test authentication scheme of the
// paper's Fig. 2. The chip holds two secrets in tamper-proof memory — the
// scan-locking secret key SK and the PRNG seed — and exposes exactly what
// silicon exposes: reset, functional clocking, and scan test sessions.
//
// The scan session is simulated cycle by cycle (shift register moves,
// key gates XOR, LFSR steps), deliberately *not* reusing the closed-form
// mask algebra of internal/scan. Property tests in internal/core assert
// the attacker's combinational model reproduces this simulation bit for
// bit, which validates Algorithm 1. Each cycle works on words: the chain
// is a bit vector that shifts one position, then takes the XOR of that
// cycle's key bits at the links their gates sit on; the key register
// steps by a one-bit word shift and is read in place. A shift cycle
// allocates nothing.
package oracle

import (
	"crypto/subtle"
	"fmt"

	"dynunlock/internal/gf2"
	"dynunlock/internal/lfsr"
	"dynunlock/internal/lock"
	"dynunlock/internal/scan"
	"dynunlock/internal/sim"
)

// Stats counts attacker-visible interactions.
type Stats struct {
	Sessions uint64 // scan test sessions served
	Cycles   uint64 // total clock cycles consumed
	Resets   uint64
}

// Chip is a fabricated, functional, scan-locked IC.
type Chip struct {
	design *lock.Design
	seq    *sim.Seq

	secretSeed gf2.Vec // LFSR seed (dynamic) or static key register value
	authKey    []bool  // SK: the externally matched test key (Fig. 2)

	reg         lfsr.Register
	lfsrSteps   int
	flops       gf2.Vec // chain flop j is bit j
	globalCycle int
	patterns    int

	Stats Stats

	// SessionHook, when non-nil, is called at the end of every scan session
	// with the clock cycles that session consumed. Attack layers install it
	// to account tester time (trace counters) without wrapping the chip.
	SessionHook func(cycles uint64)
}

// New fabricates a chip. secretSeed must have the design's key width; for
// dynamic policies it must be nonzero (the all-zero LFSR state is a fixed
// point and would degenerate the defense). authKey is the scan-locking
// secret key SK used by the test authentication comparator.
func New(d *lock.Design, secretSeed gf2.Vec, authKey []bool) (*Chip, error) {
	if secretSeed.Len() != d.Config.KeyBits {
		return nil, fmt.Errorf("oracle: seed width %d, want %d", secretSeed.Len(), d.Config.KeyBits)
	}
	if d.Config.Policy != scan.Static && secretSeed.IsZero() {
		return nil, fmt.Errorf("oracle: all-zero LFSR seed is degenerate")
	}
	if len(authKey) != d.Config.KeyBits {
		return nil, fmt.Errorf("oracle: auth key width %d, want %d", len(authKey), d.Config.KeyBits)
	}
	// The capture-cycle core runs on the AIG stepper over the design's one
	// compiled core (bit-identical to the gate-level one; property tests in
	// internal/sim and internal/core pin that down). A view the AIG
	// compiler rejects is an error.
	g, err := d.Core()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	c := &Chip{
		design:     d,
		seq:        sim.NewSeqAIG(d.View, g),
		secretSeed: secretSeed.Clone(),
		authKey:    append([]bool(nil), authKey...),
	}
	if d.Config.Policy != scan.Static {
		reg, err := d.NewRegister()
		if err != nil {
			return nil, err
		}
		c.reg = reg
	}
	c.Reset()
	c.Stats = Stats{}
	return c, nil
}

// Design returns the attacker-visible structural description.
func (c *Chip) Design() *lock.Design { return c.design }

// SetSessionHook installs h as the session hook and returns the hook that
// was installed before, so layered observers (trace accounting, the flight
// recorder) can chain and later restore it. Equivalent to assigning the
// SessionHook field directly; the method form is what satisfies the oracle
// interface consumed by the attack layers (core.Chip).
func (c *Chip) SetSessionHook(h func(cycles uint64)) (prev func(cycles uint64)) {
	prev = c.SessionHook
	c.SessionHook = h
	return prev
}

// Reset asserts the chip reset: flip-flops clear, the PRNG reloads the
// secret seed, and the pattern/cycle counters restart.
func (c *Chip) Reset() {
	c.flops = gf2.NewVec(c.design.Chain.Length)
	if c.reg != nil {
		c.reg.Seed(c.secretSeed)
	}
	c.lfsrSteps = 0
	c.globalCycle = 0
	c.patterns = 0
	c.Stats.Resets++
}

// advanceRegister steps the dynamic key register to the value the update
// policy gives it at the current global cycle. The register only runs
// forward; Reset is the only rewind.
func (c *Chip) advanceRegister() {
	target := c.design.Config.Policy.Steps(c.patterns, c.globalCycle, c.design.Config.Period)
	for ; c.lfsrSteps < target; c.lfsrSteps++ {
		c.reg.Step()
	}
}

// Session runs one scan test session: shift in scanIn (bit j destined for
// chain flop j), one capture with primary inputs pi, shift out. It returns
// the observed scan-out (scanOut[j] is the bit that corresponds to captured
// flop j) and the primary outputs sampled during capture.
//
// If testKey matches the secret SK, the key gates are driven by that static
// key for the whole session (the trusted-tester path of Fig. 2); otherwise
// the policy-driven dynamic key scrambles the scan data.
func (c *Chip) Session(testKey, scanIn, pi []bool) (scanOut, po []bool) {
	out, pos := c.SessionN(testKey, scanIn, [][]bool{pi})
	return out, pos[0]
}

// SessionN runs a session with len(pis) consecutive capture cycles (the
// paper's multi-capture extension): shift in, capture once per entry of
// pis, shift out the final state. It returns the observed scan-out and the
// primary outputs sampled at each capture.
func (c *Chip) SessionN(testKey, scanIn []bool, pis [][]bool) (scanOut []bool, pos [][]bool) {
	d := c.design
	n := d.Chain.Length
	if len(scanIn) != n {
		panic(fmt.Sprintf("oracle: scan-in length %d, want %d", len(scanIn), n))
	}
	if len(pis) < 1 {
		panic("oracle: need at least one capture")
	}
	for _, pi := range pis {
		if len(pi) != d.View.NumPI {
			panic(fmt.Sprintf("oracle: %d PIs, want %d", len(pi), d.View.NumPI))
		}
	}
	match := len(testKey) == len(c.authKey) && constantTimeEqual(testKey, c.authKey)
	cyclesBefore := c.Stats.Cycles

	// Shift-in: n edges.
	for t := 0; t < n; t++ {
		c.shiftEdge(scanIn[n-1-t], match)
		c.tick()
	}
	// Capture edges: key gates idle for scan data; the PRNG still clocks.
	c.seq.SetState(c.flops.Bools())
	for _, pi := range pis {
		pos = append(pos, c.seq.Step(pi))
		c.tick()
	}
	c.flops = gf2.FromBools(c.seq.State())
	// Shift-out: observe before each edge.
	scanOut = make([]bool, n)
	first := n + len(pis)
	for t := first; t < first+n; t++ {
		scanOut[first+n-1-t] = c.flops.Get(n - 1)
		c.shiftEdge(false, match)
		c.tick()
	}
	c.patterns++
	c.Stats.Sessions++
	if c.SessionHook != nil {
		c.SessionHook(c.Stats.Cycles - cyclesBefore)
	}
	return scanOut, pos
}

// shiftEdge moves the scan chain one position, feeding si into flop 0,
// and XORs every key gate's key bit of this cycle onto the bit that
// crossed its link. The key is SK when the session's test key matched it;
// otherwise the static secret, or the dynamic register's state, viewed in
// place once per cycle.
func (c *Chip) shiftEdge(si, match bool) {
	c.flops.Shift(si)
	gates := c.design.Chain.Gates
	switch {
	case match:
		for _, g := range gates {
			if c.authKey[g.KeyBit] {
				c.flops.Flip(g.Link)
			}
		}
	case c.reg == nil:
		for _, g := range gates {
			if c.secretSeed.Get(g.KeyBit) {
				c.flops.Flip(g.Link)
			}
		}
	default:
		c.advanceRegister()
		key := c.reg.View()
		for _, g := range gates {
			if key.Get(g.KeyBit) {
				c.flops.Flip(g.Link)
			}
		}
	}
}

func (c *Chip) tick() {
	c.globalCycle++
	c.Stats.Cycles++
}

func constantTimeEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	var ba, bb []byte
	for i := range a {
		ba = append(ba, boolByte(a[i]))
		bb = append(bb, boolByte(b[i]))
	}
	return subtle.ConstantTimeCompare(ba, bb) == 1
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// SecretSeed exposes the programmed secret for experiment verification
// (checking that a recovered candidate set contains the truth). A real
// attacker has no such access.
func (c *Chip) SecretSeed() gf2.Vec { return c.secretSeed.Clone() }
