// Package netlist provides a gate-level representation of combinational and
// sequential circuits, an ISCAS-89 ".bench" reader/writer, structural
// validation, and levelization for simulation and CNF encoding.
//
// A Netlist holds a set of named signals. Each signal is either a primary
// input, a constant, the output of a combinational gate, or the output of a
// D flip-flop (whose single fanin is the D input, i.e. the next-state
// function). Primary outputs are markers on existing signals.
//
// The sequential interpretation follows standard scan-design practice: the
// combinational core computes next-state (DFF D inputs) and primary outputs
// from primary inputs and present state (DFF Q outputs).
package netlist

import "fmt"

// GateType enumerates signal kinds.
type GateType uint8

// Signal kinds. Input and DFF signals are sequential-view sources; the rest
// are combinational.
const (
	Input GateType = iota
	Const0
	Const1
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	Mux // Fanin: (sel, d0, d1); output = d1 if sel else d0
	DFF // Fanin: (D)
	numGateTypes
)

var gateNames = [...]string{
	Input: "INPUT", Const0: "CONST0", Const1: "CONST1", Buf: "BUFF",
	Not: "NOT", And: "AND", Nand: "NAND", Or: "OR", Nor: "NOR",
	Xor: "XOR", Xnor: "XNOR", Mux: "MUX", DFF: "DFF",
}

// String returns the ISCAS-style name of the gate type.
func (g GateType) String() string {
	if int(g) < len(gateNames) {
		return gateNames[g]
	}
	return fmt.Sprintf("GateType(%d)", int(g))
}

// SignalID identifies a signal within one Netlist.
type SignalID int32

// Gate is the definition of one signal.
type Gate struct {
	Type  GateType
	Fanin []SignalID
}

// Netlist is a mutable gate-level circuit.
type Netlist struct {
	Name string

	names  []string
	byName map[string]SignalID
	gates  []Gate

	pis  []SignalID
	pos  []SignalID
	dffs []SignalID
}

// New returns an empty netlist with the given name.
func New(name string) *Netlist {
	return &Netlist{Name: name, byName: make(map[string]SignalID)}
}

// NumSignals returns the number of signals defined so far.
func (n *Netlist) NumSignals() int { return len(n.gates) }

// SignalName returns the name of signal id.
func (n *Netlist) SignalName(id SignalID) string { return n.names[id] }

// Lookup returns the signal with the given name.
func (n *Netlist) Lookup(name string) (SignalID, bool) {
	id, ok := n.byName[name]
	return id, ok
}

// Gate returns the definition of signal id. The fanin slice must not be
// mutated by callers.
func (n *Netlist) Gate(id SignalID) Gate { return n.gates[id] }

// Type returns the gate type of signal id.
func (n *Netlist) Type(id SignalID) GateType { return n.gates[id].Type }

// Fanin returns the fanin list of signal id (aliases internal storage).
func (n *Netlist) Fanin(id SignalID) []SignalID { return n.gates[id].Fanin }

// DFFs returns the flip-flop output signals in declaration order.
func (n *Netlist) DFFs() []SignalID { return n.dffs }

func (n *Netlist) define(name string, g Gate) (SignalID, error) {
	if name == "" {
		name = fmt.Sprintf("n%d", len(n.gates))
	}
	if prev, ok := n.byName[name]; ok {
		if n.gates[prev].Type != pendingType {
			return 0, fmt.Errorf("netlist: signal %q defined twice", name)
		}
		// Resolve a forward reference created by Ref.
		n.gates[prev] = g
		n.registerKind(prev, g.Type)
		return prev, nil
	}
	id := SignalID(len(n.gates))
	n.names = append(n.names, name)
	n.byName[name] = id
	n.gates = append(n.gates, g)
	n.registerKind(id, g.Type)
	return id, nil
}

func (n *Netlist) registerKind(id SignalID, t GateType) {
	switch t {
	case Input:
		n.pis = append(n.pis, id)
	case DFF:
		n.dffs = append(n.dffs, id)
	}
}

// pendingType marks a signal referenced before its definition.
const pendingType = numGateTypes

// Ref returns the ID for name, creating an undefined placeholder if needed.
// All placeholders must be resolved by later definitions; Validate reports
// any that are not.
func (n *Netlist) Ref(name string) SignalID {
	if id, ok := n.byName[name]; ok {
		return id
	}
	id := SignalID(len(n.gates))
	n.names = append(n.names, name)
	n.byName[name] = id
	n.gates = append(n.gates, Gate{Type: pendingType})
	return id
}

// AddInput declares a primary input. Empty name auto-generates one.
func (n *Netlist) AddInput(name string) (SignalID, error) {
	return n.define(name, Gate{Type: Input})
}

// AddConst declares a constant signal.
func (n *Netlist) AddConst(name string, value bool) (SignalID, error) {
	t := Const0
	if value {
		t = Const1
	}
	return n.define(name, Gate{Type: t})
}

// AddGate declares a combinational gate. Fanin arity is checked.
func (n *Netlist) AddGate(name string, t GateType, fanin ...SignalID) (SignalID, error) {
	if err := checkArity(t, len(fanin)); err != nil {
		return 0, fmt.Errorf("netlist: gate %q: %w", name, err)
	}
	for _, f := range fanin {
		if int(f) < 0 || int(f) >= len(n.gates) {
			return 0, fmt.Errorf("netlist: gate %q: fanin id %d undefined", name, f)
		}
	}
	return n.define(name, Gate{Type: t, Fanin: append([]SignalID(nil), fanin...)})
}

// AddDFF declares a flip-flop whose Q output is the new signal and whose D
// input is d.
func (n *Netlist) AddDFF(name string, d SignalID) (SignalID, error) {
	if int(d) < 0 || int(d) >= len(n.gates) {
		return 0, fmt.Errorf("netlist: dff %q: fanin id %d undefined", name, d)
	}
	return n.define(name, Gate{Type: DFF, Fanin: []SignalID{d}})
}

// MarkOutput declares signal id as a primary output.
func (n *Netlist) MarkOutput(id SignalID) {
	n.pos = append(n.pos, id)
}

func checkArity(t GateType, k int) error {
	switch t {
	case Buf, Not:
		if k != 1 {
			return fmt.Errorf("%s needs 1 fanin, got %d", t, k)
		}
	case And, Nand, Or, Nor, Xor, Xnor:
		if k < 2 {
			return fmt.Errorf("%s needs >=2 fanins, got %d", t, k)
		}
	case Mux:
		if k != 3 {
			return fmt.Errorf("MUX needs 3 fanins, got %d", k)
		}
	case Input, Const0, Const1:
		if k != 0 {
			return fmt.Errorf("%s takes no fanin, got %d", t, k)
		}
	case DFF:
		if k != 1 {
			return fmt.Errorf("DFF needs 1 fanin, got %d", k)
		}
	default:
		return fmt.Errorf("unknown gate type %d", t)
	}
	return nil
}

// Validate checks that every referenced signal is defined, arities hold,
// outputs exist, and the combinational part is acyclic.
func (n *Netlist) Validate() error {
	for id, g := range n.gates {
		if g.Type == pendingType {
			return fmt.Errorf("netlist: signal %q referenced but never defined", n.names[id])
		}
		if err := checkArity(g.Type, len(g.Fanin)); err != nil {
			return fmt.Errorf("netlist: signal %q: %w", n.names[id], err)
		}
		for _, f := range g.Fanin {
			if int(f) < 0 || int(f) >= len(n.gates) {
				return fmt.Errorf("netlist: signal %q: fanin id %d out of range", n.names[id], f)
			}
		}
	}
	for _, po := range n.pos {
		if int(po) < 0 || int(po) >= len(n.gates) {
			return fmt.Errorf("netlist: output id %d out of range", po)
		}
	}
	if _, err := n.Levelize(); err != nil {
		return err
	}
	return nil
}

// Levelize returns a topological order of the combinational gates: every
// gate appears after all of its fanins, where Input, Const, and DFF signals
// count as sources (they are not included in the order). An error is
// returned if the combinational logic contains a cycle.
func (n *Netlist) Levelize() ([]SignalID, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(n.gates))
	order := make([]SignalID, 0, len(n.gates))

	// Iterative DFS to avoid stack overflow on deep circuits.
	type frame struct {
		id   SignalID
		next int
	}
	var stack []frame
	visit := func(root SignalID) error {
		if color[root] != white {
			return nil
		}
		stack = stack[:0]
		stack = append(stack, frame{id: root})
		color[root] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			g := n.gates[f.id]
			if f.next < len(g.Fanin) {
				child := g.Fanin[f.next]
				f.next++
				ct := n.gates[child].Type
				if ct == Input || ct == DFF || ct == Const0 || ct == Const1 {
					continue // source: not traversed
				}
				switch color[child] {
				case white:
					color[child] = gray
					stack = append(stack, frame{id: child})
				case gray:
					return fmt.Errorf("netlist: combinational cycle through %q", n.names[child])
				}
				continue
			}
			color[f.id] = black
			order = append(order, f.id)
			stack = stack[:len(stack)-1]
		}
		return nil
	}

	for id := range n.gates {
		t := n.gates[id].Type
		if t == Input || t == DFF || t == Const0 || t == Const1 {
			continue
		}
		if err := visit(SignalID(id)); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Stats summarizes a netlist.
type Stats struct {
	Name    string
	PIs     int
	POs     int
	DFFs    int
	Gates   int // combinational gates (excluding consts)
	Signals int
}

// Stats computes summary statistics.
func (n *Netlist) Stats() Stats {
	s := Stats{Name: n.Name, PIs: len(n.pis), POs: len(n.pos), DFFs: len(n.dffs), Signals: len(n.gates)}
	for _, g := range n.gates {
		switch g.Type {
		case Input, DFF, Const0, Const1, pendingType:
		default:
			s.Gates++
		}
	}
	return s
}

// String renders stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d PI, %d PO, %d DFF, %d gates", s.Name, s.PIs, s.POs, s.DFFs, s.Gates)
}
