// Package fault implements the single stuck-at fault model and a 64-way
// parallel-pattern fault simulator for combinational views.
//
// Scan chains exist to make sequential circuits testable for exactly these
// faults; scan locking deliberately breaks that access for untrusted
// testers. The fault machinery quantifies what is at stake: with scan
// access (or after DynUnlock recovers it) stuck-at coverage is high; through
// an obfuscated chain driven by an unknown dynamic key it collapses.
package fault

import (
	"fmt"

	"dynunlock/internal/netlist"
	"dynunlock/internal/sim"
)

// Fault is a single stuck-at fault on a signal (gate output, primary
// input, or state line in a combinational view).
type Fault struct {
	Signal  netlist.SignalID
	StuckAt bool // faulty value: false = stuck-at-0, true = stuck-at-1
}

// String renders the fault in conventional notation.
func (f Fault) String() string {
	v := 0
	if f.StuckAt {
		v = 1
	}
	return fmt.Sprintf("s-a-%d@%d", v, f.Signal)
}

// AllFaults enumerates both stuck-at faults on every input and gate output
// signal of the view (the collapsed "output stuck" fault universe).
func AllFaults(v *netlist.CombView) []Fault {
	var out []Fault
	add := func(id netlist.SignalID) {
		out = append(out, Fault{Signal: id, StuckAt: false}, Fault{Signal: id, StuckAt: true})
	}
	for _, s := range v.Inputs {
		add(s)
	}
	for _, s := range v.Order {
		add(s)
	}
	return out
}

// Simulator runs fault-free and faulty evaluations over a combinational
// view with 64 patterns in parallel.
type Simulator struct {
	view *netlist.CombView
	good *sim.Comb
	vals []uint64
}

// NewSimulator builds a fault simulator for the view.
func NewSimulator(v *netlist.CombView) *Simulator {
	return &Simulator{view: v, good: sim.NewComb(v), vals: make([]uint64, v.N.NumSignals())}
}

// Detects returns a bitmask of which of the 64 parallel patterns detect
// fault f: the faulty circuit's outputs differ from the fault-free ones.
func (s *Simulator) Detects(f Fault, inputs []uint64) uint64 {
	goodOut := s.good.Eval(inputs)
	badOut := s.evalFaulty(f, inputs)
	var detected uint64
	for i := range goodOut {
		detected |= goodOut[i] ^ badOut[i]
	}
	return detected
}

// evalFaulty evaluates the circuit with signal f.Signal forced to the
// stuck value.
func (s *Simulator) evalFaulty(f Fault, inputs []uint64) []uint64 {
	n := s.view.N
	forced := uint64(0)
	if f.StuckAt {
		forced = ^uint64(0)
	}
	for i, sig := range s.view.Inputs {
		s.vals[sig] = inputs[i]
	}
	for id := 0; id < n.NumSignals(); id++ {
		switch n.Type(netlist.SignalID(id)) {
		case netlist.Const0:
			s.vals[id] = 0
		case netlist.Const1:
			s.vals[id] = ^uint64(0)
		}
	}
	if int(f.Signal) < len(s.vals) {
		s.vals[f.Signal] = forced
	}
	for _, id := range s.view.Order {
		if id == f.Signal {
			s.vals[id] = forced
			continue
		}
		s.vals[id] = evalWordGate(n.Gate(id), s.vals)
	}
	out := make([]uint64, len(s.view.Outputs))
	for i, sig := range s.view.Outputs {
		out[i] = s.vals[sig]
	}
	return out
}

func evalWordGate(g netlist.Gate, vals []uint64) uint64 {
	switch g.Type {
	case netlist.Buf:
		return vals[g.Fanin[0]]
	case netlist.Not:
		return ^vals[g.Fanin[0]]
	case netlist.And, netlist.Nand:
		acc := ^uint64(0)
		for _, f := range g.Fanin {
			acc &= vals[f]
		}
		if g.Type == netlist.Nand {
			return ^acc
		}
		return acc
	case netlist.Or, netlist.Nor:
		var acc uint64
		for _, f := range g.Fanin {
			acc |= vals[f]
		}
		if g.Type == netlist.Nor {
			return ^acc
		}
		return acc
	case netlist.Xor, netlist.Xnor:
		var acc uint64
		for _, f := range g.Fanin {
			acc ^= vals[f]
		}
		if g.Type == netlist.Xnor {
			return ^acc
		}
		return acc
	case netlist.Mux:
		sel, d0, d1 := vals[g.Fanin[0]], vals[g.Fanin[1]], vals[g.Fanin[2]]
		return (d0 &^ sel) | (d1 & sel)
	default:
		panic(fmt.Sprintf("fault: cannot evaluate %v", g.Type))
	}
}

// PackPatterns packs up to 64 bool patterns (each of view-input length)
// into word-parallel form.
func PackPatterns(patterns [][]bool, numInputs int) []uint64 {
	if len(patterns) > 64 {
		panic("fault: more than 64 patterns per word")
	}
	words := make([]uint64, numInputs)
	for p, pat := range patterns {
		if len(pat) != numInputs {
			panic(fmt.Sprintf("fault: pattern %d has %d inputs, want %d", p, len(pat), numInputs))
		}
		for i, b := range pat {
			if b {
				words[i] |= 1 << uint(p)
			}
		}
	}
	return words
}

// CoverageResult summarizes a fault-simulation campaign.
type CoverageResult struct {
	Total    int
	Detected int
	// Undetected lists the faults no pattern detected.
	Undetected []Fault
}

// Campaign fault-simulates all patterns against all faults.
func Campaign(v *netlist.CombView, faults []Fault, patterns [][]bool) CoverageResult {
	s := NewSimulator(v)
	res := CoverageResult{Total: len(faults)}
	// Pack pattern blocks once.
	var blocks [][]uint64
	var blockLens []int
	for start := 0; start < len(patterns); start += 64 {
		end := start + 64
		if end > len(patterns) {
			end = len(patterns)
		}
		blocks = append(blocks, PackPatterns(patterns[start:end], len(v.Inputs)))
		blockLens = append(blockLens, end-start)
	}
	for _, f := range faults {
		detected := false
		for bi, blk := range blocks {
			mask := s.Detects(f, blk)
			if blockLens[bi] < 64 {
				mask &= (1 << uint(blockLens[bi])) - 1
			}
			if mask != 0 {
				detected = true
				break
			}
		}
		if detected {
			res.Detected++
		} else {
			res.Undetected = append(res.Undetected, f)
		}
	}
	return res
}
