// Package aig provides an arena-backed And-Inverter Graph: a compact
// structural representation of combinational logic built once per attack
// and shared across every CNF copy the attack emits.
//
// Nodes live in one flat slice (the arena); edges are literals packed as
// node<<1|complement, so inversion is free and never allocates a node.
// Construction applies structural hashing (identical (op,a,b) nodes are
// created once) and constant folding. Graph.Compile adds a netlist.CombView
// to a graph from given input edges, walking only the cone of influence
// (Cone) of the outputs it is asked for, so dead logic in the source
// netlist never reaches the graph. FromCombView compiles one view into a
// new graph; internal/core compiles the design's core once per capture
// into the graph of its mask model, between the mask XORs it adds itself.
// The result is a canonical, deduplicated structure that the encoder can
// replay per circuit copy with nothing more than a substitution map over
// the inputs (see encode.EncodeAIG), and that Sim can evaluate 64 patterns
// at a time without touching the netlist.
//
// Gate decomposition: n-ary AND/OR/NAND/NOR chains become balanced trees of
// AND nodes (OR via De Morgan on complemented edges); XOR/XNOR chains
// become XOR nodes, kept native — rather than expanded into four ANDs — so
// downstream GF(2) reasoning (sat.Solver native XOR rows) survives the
// round trip; MUX decomposes into its AND/OR form. BUF and NOT are pure
// edge operations and never allocate.
package aig

import (
	"fmt"

	"dynunlock/internal/netlist"
)

// Lit is an edge: a node index shifted left once, with the low bit set when
// the edge is complemented. The constant-false node has index 0, so
// ConstFalse == Lit(0) and ConstTrue == Lit(1).
type Lit uint32

// Constant edges. Node 0 is the constant-false node present in every graph.
const (
	ConstFalse Lit = 0
	ConstTrue  Lit = 1
)

// Node returns the node index the literal points at.
func (l Lit) Node() uint32 { return uint32(l >> 1) }

// Sign reports whether the edge is complemented.
func (l Lit) Sign() bool { return l&1 == 1 }

// Not returns the complemented edge.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal for debugging.
func (l Lit) String() string {
	switch l {
	case ConstFalse:
		return "0"
	case ConstTrue:
		return "1"
	}
	if l.Sign() {
		return fmt.Sprintf("!n%d", l.Node())
	}
	return fmt.Sprintf("n%d", l.Node())
}

// Kind discriminates node types in the arena.
type Kind uint8

// Node kinds. The constant node and inputs are leaves; And and Xor are the
// only internal operators (inversion lives on edges).
const (
	KindConst Kind = iota
	KindInput
	KindAnd
	KindXor
)

// node is one arena entry. Leaves (const, input) have zero operands; And
// and Xor nodes reference strictly earlier nodes, so arena index order is a
// topological order by construction.
type node struct {
	a, b Lit
	kind Kind
}

type strashKey struct {
	a, b Lit
	kind Kind
}

// Graph is an arena-backed AIG over a fixed set of ordered inputs.
type Graph struct {
	nodes  []node
	strash map[strashKey]uint32
	inputs []Lit // input i's (uncomplemented) edge
	outs   []Lit

	numAnd, numXor int
}

// New returns an empty graph with n inputs (node 0 is the constant).
func New(n int) *Graph {
	g := &Graph{
		nodes:  make([]node, 1, 1+n),
		strash: make(map[strashKey]uint32),
		inputs: make([]Lit, n),
	}
	for i := 0; i < n; i++ {
		g.nodes = append(g.nodes, node{kind: KindInput})
		g.inputs[i] = Lit(uint32(len(g.nodes)-1) << 1)
	}
	return g
}

// NumInputs returns the number of input nodes.
func (g *Graph) NumInputs() int { return len(g.inputs) }

// NumNodes returns the total node count including the constant and inputs.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumAnds returns the number of AND nodes.
func (g *Graph) NumAnds() int { return g.numAnd }

// NumXors returns the number of XOR nodes.
func (g *Graph) NumXors() int { return g.numXor }

// Input returns the edge for input i.
func (g *Graph) Input(i int) Lit { return g.inputs[i] }

// Outputs returns the output edges registered with AddOutput (aliases
// internal storage).
func (g *Graph) Outputs() []Lit { return g.outs }

// AddOutput registers l as the next output of the graph.
func (g *Graph) AddOutput(l Lit) { g.outs = append(g.outs, l) }

// NodeAt exposes node i's kind and operand edges (operands are
// meaningful only for And and Xor kinds). Used by the encoder walk.
func (g *Graph) NodeAt(i int) (kind Kind, a, b Lit) {
	n := g.nodes[i]
	return n.kind, n.a, n.b
}

// And returns an edge equivalent to a AND b, folding constants and
// duplicate or complementary operands, and structurally hashing the rest.
func (g *Graph) And(a, b Lit) Lit {
	// Constant and trivial folds.
	switch {
	case a == ConstFalse || b == ConstFalse || a == b.Not():
		return ConstFalse
	case a == ConstTrue:
		return b
	case b == ConstTrue || a == b:
		return a
	}
	if a > b {
		a, b = b, a
	}
	return g.mk(KindAnd, a, b)
}

// Or returns an edge equivalent to a OR b (De Morgan over And).
func (g *Graph) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns an edge equivalent to a XOR b. The result is canonicalized:
// operand complements are hoisted onto the output edge so that structurally
// equal XORs hash together regardless of input polarity.
func (g *Graph) Xor(a, b Lit) Lit {
	out := a.Sign() != b.Sign()
	a &^= 1
	b &^= 1
	switch {
	case a == b:
		return constOf(out)
	case a == ConstFalse: // a was a constant; b XOR const = b (polarity in out)
		return b.xorSign(out)
	case b == ConstFalse:
		return a.xorSign(out)
	}
	if a > b {
		a, b = b, a
	}
	return g.mk(KindXor, a, b).xorSign(out)
}

// Mux returns sel ? d1 : d0, decomposed into AND/OR structure.
func (g *Graph) Mux(sel, d0, d1 Lit) Lit {
	switch {
	case sel == ConstFalse:
		return d0
	case sel == ConstTrue:
		return d1
	case d0 == d1:
		return d0
	}
	if d0 == d1.Not() {
		return g.Xor(sel, d0)
	}
	return g.Or(g.And(sel, d1), g.And(sel.Not(), d0))
}

func (l Lit) xorSign(s bool) Lit {
	if s {
		return l.Not()
	}
	return l
}

func constOf(v bool) Lit {
	if v {
		return ConstTrue
	}
	return ConstFalse
}

func (g *Graph) mk(kind Kind, a, b Lit) Lit {
	key := strashKey{kind: kind, a: a, b: b}
	if id, ok := g.strash[key]; ok {
		return Lit(id << 1)
	}
	id := uint32(len(g.nodes))
	g.nodes = append(g.nodes, node{kind: kind, a: a, b: b})
	g.strash[key] = id
	if kind == KindAnd {
		g.numAnd++
	} else {
		g.numXor++
	}
	return Lit(id << 1)
}

// reduce folds a slice of operands into a balanced tree via op. The slice
// must be non-empty.
func reduce(lits []Lit, op func(a, b Lit) Lit) Lit {
	for len(lits) > 1 {
		w := 0
		for i := 0; i < len(lits); i += 2 {
			if i+1 < len(lits) {
				lits[w] = op(lits[i], lits[i+1])
			} else {
				lits[w] = lits[i]
			}
			w++
		}
		lits = lits[:w]
	}
	return lits[0]
}

// Cone marks the cone of influence of the outputs of v that want selects
// (nil selects them all): one mark per signal of v, set on every gate the
// selected outputs depend on and on every input or constant they read. The
// sweep stops at v's inputs, whose fanin belongs to the sequential frame.
func Cone(v *netlist.CombView, want []bool) []bool {
	n := v.N
	inCone := make([]bool, n.NumSignals())
	isInput := make([]bool, n.NumSignals())
	for _, s := range v.Inputs {
		isInput[s] = true
	}
	stack := make([]netlist.SignalID, 0, len(v.Outputs))
	for i, o := range v.Outputs {
		if (want == nil || want[i]) && !inCone[o] {
			inCone[o] = true
			stack = append(stack, o)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if isInput[id] {
			continue
		}
		for _, f := range n.Fanin(id) {
			if !inCone[f] {
				inCone[f] = true
				stack = append(stack, f)
			}
		}
	}
	return inCone
}

// Compile adds the logic of v that cone marks (see Cone) to g, with input
// i of v bound to the edge in[i], and returns one edge per output of v. An
// output outside cone gets ConstFalse, and the edge of an input outside
// cone is never read. Gates are compiled in v.Order, so compiling the same
// cone from the same edges into graphs built alike adds the same nodes.
func (g *Graph) Compile(v *netlist.CombView, cone []bool, in []Lit) ([]Lit, error) {
	if len(in) != len(v.Inputs) {
		return nil, fmt.Errorf("aig: got %d input edges, view has %d inputs", len(in), len(v.Inputs))
	}
	n := v.N
	lits := make([]Lit, n.NumSignals())
	have := make([]bool, n.NumSignals())
	for i, s := range v.Inputs {
		lits[s] = in[i]
		have[s] = true
	}

	var ops []Lit // one gate's operand edges, reused across gates
	eval := func(id netlist.SignalID) (Lit, error) {
		gate := n.Gate(id)
		ops = ops[:0]
		for _, f := range gate.Fanin {
			if !have[f] {
				return 0, fmt.Errorf("aig: signal %q used before definition", n.SignalName(f))
			}
			ops = append(ops, lits[f])
		}
		switch gate.Type {
		case netlist.Const0:
			return ConstFalse, nil
		case netlist.Const1:
			return ConstTrue, nil
		case netlist.Buf:
			return ops[0], nil
		case netlist.Not:
			return ops[0].Not(), nil
		case netlist.And:
			return reduce(ops, g.And), nil
		case netlist.Nand:
			return reduce(ops, g.And).Not(), nil
		case netlist.Or:
			return reduce(ops, g.Or), nil
		case netlist.Nor:
			return reduce(ops, g.Or).Not(), nil
		case netlist.Xor:
			return reduce(ops, g.Xor), nil
		case netlist.Xnor:
			return reduce(ops, g.Xor).Not(), nil
		case netlist.Mux:
			return g.Mux(ops[0], ops[1], ops[2]), nil
		default:
			return 0, fmt.Errorf("aig: unsupported gate type %v for %q", gate.Type, n.SignalName(id))
		}
	}

	// Constants can sit outside Order; define any in the cone up front.
	for id := 0; id < n.NumSignals(); id++ {
		sid := netlist.SignalID(id)
		if !cone[sid] || have[sid] {
			continue
		}
		switch n.Type(sid) {
		case netlist.Const0:
			lits[sid], have[sid] = ConstFalse, true
		case netlist.Const1:
			lits[sid], have[sid] = ConstTrue, true
		}
	}
	for _, id := range v.Order {
		if !cone[id] || have[id] {
			continue
		}
		l, err := eval(id)
		if err != nil {
			return nil, err
		}
		lits[id] = l
		have[id] = true
	}
	out := make([]Lit, len(v.Outputs))
	for i, o := range v.Outputs {
		if !cone[o] {
			continue
		}
		if !have[o] {
			return nil, fmt.Errorf("aig: output %q never defined", n.SignalName(o))
		}
		out[i] = lits[o]
	}
	return out, nil
}

// FromCombView compiles the combinational view into a fresh graph. Inputs
// map positionally: graph input i corresponds to v.Inputs[i], and graph
// output j to v.Outputs[j]. Only gates in the cone of influence of
// v.Outputs are visited, so logic that feeds no output (common in the
// synthetic benchmarks, where only a random subset of the gate pool is
// tapped) is skipped entirely.
func FromCombView(v *netlist.CombView) (*Graph, error) {
	g := New(len(v.Inputs))
	outs, err := g.Compile(v, Cone(v, nil), g.inputs)
	if err != nil {
		return nil, err
	}
	g.outs = outs
	return g, nil
}

// Sim is a reusable bit-parallel evaluator over a finished graph. The
// graph itself stays read-only, so one graph can back many Sims
// concurrently; each Sim carries its own value buffer and is not
// goroutine-safe.
type Sim struct {
	g   *Graph
	val []uint64
}

// NewSim builds an evaluator for g.
func NewSim(g *Graph) *Sim {
	return &Sim{g: g, val: make([]uint64, len(g.nodes))}
}

// Eval evaluates 64 patterns at once: in holds one word per graph input,
// and the result — owned by the caller — one word per output. Arena index
// order is topological, so a single forward sweep suffices.
func (s *Sim) Eval(in []uint64) []uint64 {
	g := s.g
	if len(in) != len(g.inputs) {
		panic(fmt.Sprintf("aig: Eval got %d input words, graph has %d inputs", len(in), len(g.inputs)))
	}
	val := s.val
	val[0] = 0
	for i, l := range g.inputs {
		val[l.Node()] = in[i]
	}
	word := func(l Lit) uint64 {
		v := val[l.Node()]
		if l.Sign() {
			v = ^v
		}
		return v
	}
	for i := range g.nodes {
		nd := &g.nodes[i]
		switch nd.kind {
		case KindAnd:
			val[i] = word(nd.a) & word(nd.b)
		case KindXor:
			val[i] = word(nd.a) ^ word(nd.b)
		}
	}
	out := make([]uint64, len(g.outs))
	for i, l := range g.outs {
		out[i] = word(l)
	}
	return out
}
