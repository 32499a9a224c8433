// Package lock applies scan locking to a sequential netlist, covering the
// three defense families in the paper's Table I:
//
//   - EFF (static): XOR key gates on the scan path driven by a fixed
//     secret key.
//   - DOS-style (per-pattern dynamic): key gates driven by an LFSR that
//     steps once every `Period` patterns.
//   - EFF-Dyn (per-cycle dynamic): key gates driven by an LFSR that steps
//     every clock cycle — the paper's target defense.
//
// A locked Design carries everything the *attacker* is assumed to know
// under the paper's threat model: the netlist, the scan chain order, the
// key-gate locations and register-bit bindings, the key-update policy, and
// the LFSR feedback polynomial. The secrets — the LFSR seed and the test
// authentication key — live in the oracle package's Chip, not here.
package lock

import (
	"fmt"
	"math/rand"

	"dynunlock/internal/gf2"
	"dynunlock/internal/lfsr"
	"dynunlock/internal/netlist"
	"dynunlock/internal/scan"
)

// MaxKeyBits bounds the key register width and the key-gate count that
// Lock accepts: far above the paper's widest register (368 bits in
// Table III), and low enough that the per-bit structures built from a
// design (gate lists, symbolic LFSR matrices) stay small. Lock is the one
// constructor of a Design, so a width read from outside input — a job
// request, a bundle manifest — is rejected here before anything is
// allocated for it.
const MaxKeyBits = 4096

// Config selects locking parameters.
type Config struct {
	// KeyBits is the width k of the key register (the LFSR for dynamic
	// policies; the secret key itself for Static). The paper uses 128 in
	// Table II and 144…368 in Table III.
	KeyBits int
	// NumGates is the number of XOR key gates inserted on the scan path.
	// Zero means one gate per key bit (the paper's configuration).
	NumGates int
	// Policy is the key-update policy.
	Policy scan.Policy
	// Period is the per-pattern update period (PerPattern policy only).
	Period int
	// Poly is the LFSR feedback polynomial; zero value selects
	// lfsr.DefaultPoly(KeyBits). Ignored for Static.
	Poly lfsr.Poly
	// PlacementSeed randomizes key-gate placement; 0 selects the
	// deterministic evenly-spread placement.
	PlacementSeed int64
	// NonlinearPairs, when non-empty, upgrades the PRNG to a nonlinear
	// feedback register (AND terms over the given state-bit pairs). This
	// models the crypto-style defenses of the paper's Discussion section,
	// which DynUnlock cannot break: internal/core refuses to model them.
	NonlinearPairs [][2]int
}

// Design is a scan-locked circuit: the structural information an attacker
// recovers by reverse engineering (paper Sec. III threat model).
type Design struct {
	Netlist *netlist.Netlist
	View    *netlist.CombView
	Chain   scan.Chain
	Config  Config
}

// Lock applies scan locking to n according to cfg. The netlist itself is
// not rewritten — key gates live on the scan path, which the netlist's
// functional view does not include — but the returned Design fixes the
// chain order (netlist DFF order) and the gate placement.
func Lock(n *netlist.Netlist, cfg Config) (*Design, error) {
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("lock: %w", err)
	}
	nFF := len(n.DFFs())
	if nFF < 2 {
		return nil, fmt.Errorf("lock: need at least 2 scan flops, have %d", nFF)
	}
	if cfg.KeyBits <= 0 {
		return nil, fmt.Errorf("lock: KeyBits %d must be positive", cfg.KeyBits)
	}
	if cfg.KeyBits > MaxKeyBits || cfg.NumGates > MaxKeyBits {
		return nil, fmt.Errorf("lock: KeyBits %d / NumGates %d exceed the bound of %d (lock.MaxKeyBits)",
			cfg.KeyBits, cfg.NumGates, MaxKeyBits)
	}
	if cfg.NumGates == 0 {
		cfg.NumGates = cfg.KeyBits
	}
	if cfg.Policy != scan.Static && cfg.Poly.N == 0 {
		cfg.Poly = lfsr.DefaultPoly(cfg.KeyBits)
	}
	if cfg.Policy != scan.Static {
		if cfg.Poly.N != cfg.KeyBits {
			return nil, fmt.Errorf("lock: polynomial width %d != KeyBits %d", cfg.Poly.N, cfg.KeyBits)
		}
		if err := cfg.Poly.Validate(); err != nil {
			return nil, fmt.Errorf("lock: %w", err)
		}
	}
	if cfg.Policy == scan.PerPattern && cfg.Period <= 0 {
		cfg.Period = 1
	}
	if len(cfg.NonlinearPairs) > 0 {
		if cfg.Policy == scan.Static {
			return nil, fmt.Errorf("lock: nonlinear feedback requires a dynamic policy")
		}
		if _, err := lfsr.NewNLFSR(cfg.Poly, cfg.NonlinearPairs); err != nil {
			return nil, fmt.Errorf("lock: %w", err)
		}
	}

	var gates []scan.KeyGate
	if cfg.PlacementSeed != 0 {
		gates = randomGates(nFF, cfg.NumGates, cfg.KeyBits, cfg.PlacementSeed)
	} else {
		gates = scan.SpreadGates(nFF, cfg.NumGates, cfg.KeyBits)
	}
	chain := scan.Chain{Length: nFF, Gates: gates}
	if err := chain.Validate(cfg.KeyBits); err != nil {
		return nil, fmt.Errorf("lock: %w", err)
	}
	view, err := netlist.NewCombView(n)
	if err != nil {
		return nil, fmt.Errorf("lock: %w", err)
	}
	return &Design{Netlist: n, View: view, Chain: chain, Config: cfg}, nil
}

// randomGates places count gates on random distinct links (until links are
// exhausted, then reuses links), deterministically from seed.
func randomGates(length, count, keyBits int, seed int64) []scan.KeyGate {
	rng := rand.New(rand.NewSource(seed))
	links := length - 1
	perm := rng.Perm(links)
	gates := make([]scan.KeyGate, count)
	for i := range gates {
		gates[i] = scan.KeyGate{Link: 1 + perm[i%links], KeyBit: i % keyBits}
	}
	return gates
}

// NewLFSR instantiates the design's PRNG (dynamic policies only).
func (d *Design) NewLFSR() (*lfsr.LFSR, error) {
	if d.Config.Policy == scan.Static {
		return nil, fmt.Errorf("lock: static policy has no LFSR")
	}
	return lfsr.New(d.Config.Poly)
}

// NewRegister instantiates the design's key register: an LFSR, or a
// nonlinear register when NonlinearPairs is set.
func (d *Design) NewRegister() (lfsr.Register, error) {
	if d.Config.Policy == scan.Static {
		return nil, fmt.Errorf("lock: static policy has no PRNG")
	}
	if len(d.Config.NonlinearPairs) > 0 {
		return lfsr.NewNLFSR(d.Config.Poly, d.Config.NonlinearPairs)
	}
	return lfsr.New(d.Config.Poly)
}

// Nonlinear reports whether the key register has nonlinear feedback.
func (d *Design) Nonlinear() bool { return len(d.Config.NonlinearPairs) > 0 }

// KeyRegisterAt returns, for dynamic policies, the symbolic key register
// value at the given pattern/cycle as a matrix M with register = M·seed.
// For Static it returns the identity (register = secret key).
func (d *Design) KeyRegisterAt(patIdx, cycle int) (*gf2.Mat, error) {
	steps := d.Config.Policy.Steps(patIdx, cycle, d.Config.Period)
	if d.Config.Policy == scan.Static {
		return gf2.Identity(d.Config.KeyBits), nil
	}
	mats, err := lfsr.UnrollStates(d.Config.Poly, steps+1)
	if err != nil {
		return nil, err
	}
	return mats[steps], nil
}

// Describe renders a human-readable summary of the locked design, in the
// spirit of the paper's Fig. 1 schematic.
func (d *Design) Describe() string {
	s := fmt.Sprintf("%s locked with %d key bits (%v", d.Netlist.Stats(), d.Config.KeyBits, d.Config.Policy)
	if d.Config.Policy == scan.PerPattern {
		s += fmt.Sprintf(", p=%d", d.Config.Period)
	}
	s += fmt.Sprintf("), %d key gates on a %d-flop chain", len(d.Chain.Gates), d.Chain.Length)
	return s
}
