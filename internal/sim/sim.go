// Package sim evaluates gate-level netlists. Simulation is levelized and
// 64-way bit-parallel: each signal carries a 64-bit word, so one pass
// evaluates 64 independent patterns. Single-pattern helpers are layered on
// top. A sequential stepper provides cycle-accurate functional simulation.
package sim

import (
	"fmt"

	"dynunlock/internal/netlist"
)

// Comb is a reusable combinational simulator over a netlist.CombView.
type Comb struct {
	view *netlist.CombView
	vals []uint64
}

// NewComb builds a simulator for the given view. Constant signals are
// materialized once here; gate evaluation never overwrites them.
func NewComb(v *netlist.CombView) *Comb {
	c := &Comb{view: v, vals: make([]uint64, v.N.NumSignals())}
	for id := 0; id < v.N.NumSignals(); id++ {
		switch v.N.Type(netlist.SignalID(id)) {
		case netlist.Const0:
			c.vals[id] = 0
		case netlist.Const1:
			c.vals[id] = ^uint64(0)
		}
	}
	return c
}

// View returns the underlying combinational view.
func (c *Comb) View() *netlist.CombView { return c.view }

// Eval evaluates 64 patterns at once. inputs[i] supplies the 64 values of
// view.Inputs[i]; the result has one word per view.Outputs entry. The
// returned slice is owned by the caller.
func (c *Comb) Eval(inputs []uint64) []uint64 {
	if len(inputs) != len(c.view.Inputs) {
		panic(fmt.Sprintf("sim: got %d input words, want %d", len(inputs), len(c.view.Inputs)))
	}
	n := c.view.N
	for i, s := range c.view.Inputs {
		c.vals[s] = inputs[i]
	}
	for _, id := range c.view.Order {
		g := n.Gate(id)
		c.vals[id] = evalGate(g, c.vals)
	}
	out := make([]uint64, len(c.view.Outputs))
	for i, s := range c.view.Outputs {
		out[i] = c.vals[s]
	}
	return out
}

func evalGate(g netlist.Gate, vals []uint64) uint64 {
	switch g.Type {
	case netlist.Buf:
		return faninVal(g.Fanin[0], vals)
	case netlist.Not:
		return ^faninVal(g.Fanin[0], vals)
	case netlist.And, netlist.Nand:
		acc := ^uint64(0)
		for _, f := range g.Fanin {
			acc &= faninVal(f, vals)
		}
		if g.Type == netlist.Nand {
			return ^acc
		}
		return acc
	case netlist.Or, netlist.Nor:
		var acc uint64
		for _, f := range g.Fanin {
			acc |= faninVal(f, vals)
		}
		if g.Type == netlist.Nor {
			return ^acc
		}
		return acc
	case netlist.Xor, netlist.Xnor:
		var acc uint64
		for _, f := range g.Fanin {
			acc ^= faninVal(f, vals)
		}
		if g.Type == netlist.Xnor {
			return ^acc
		}
		return acc
	case netlist.Mux:
		sel := faninVal(g.Fanin[0], vals)
		d0 := faninVal(g.Fanin[1], vals)
		d1 := faninVal(g.Fanin[2], vals)
		return (d0 &^ sel) | (d1 & sel)
	default:
		panic(fmt.Sprintf("sim: cannot evaluate gate type %v", g.Type))
	}
}

func faninVal(f netlist.SignalID, vals []uint64) uint64 { return vals[f] }

// EvalBits evaluates a single pattern of bools.
func (c *Comb) EvalBits(in []bool) []bool {
	words := make([]uint64, len(in))
	for i, b := range in {
		if b {
			words[i] = 1
		}
	}
	out := c.Eval(words)
	bits := make([]bool, len(out))
	for i, w := range out {
		bits[i] = w&1 == 1
	}
	return bits
}

// combEval is the combinational core a Seq steps: the gate-level Comb or
// the AIG fast path (aigComb).
type combEval interface {
	EvalBits(in []bool) []bool
	View() *netlist.CombView
}

// Seq is a cycle-accurate sequential simulator: it holds the flip-flop
// state and advances one functional clock per Step.
type Seq struct {
	comb  combEval
	state []bool // one per DFF, in netlist.DFFs() order
}

// NewSeq builds a sequential simulator with all-zero initial state.
func NewSeq(v *netlist.CombView) *Seq {
	return &Seq{comb: NewComb(v), state: make([]bool, len(v.N.DFFs()))}
}

// State returns a copy of the current flip-flop state.
func (s *Seq) State() []bool { return append([]bool(nil), s.state...) }

// SetState overwrites the flip-flop state.
func (s *Seq) SetState(st []bool) {
	if len(st) != len(s.state) {
		panic(fmt.Sprintf("sim: state length %d, want %d", len(st), len(s.state)))
	}
	copy(s.state, st)
}

// Step applies pi for one clock cycle: primary outputs are sampled before
// the edge, then the state advances to the next-state values.
func (s *Seq) Step(pi []bool) (po []bool) {
	out := s.evalAll(pi)
	po = append([]bool(nil), out[:s.comb.View().NumPO]...)
	copy(s.state, out[s.comb.View().NumPO:])
	return po
}

func (s *Seq) evalAll(pi []bool) []bool {
	v := s.comb.View()
	if len(pi) != v.NumPI {
		panic(fmt.Sprintf("sim: got %d PIs, want %d", len(pi), v.NumPI))
	}
	in := make([]bool, len(v.Inputs))
	copy(in, pi)
	copy(in[v.NumPI:], s.state)
	return s.comb.EvalBits(in)
}
