package sim

import (
	"fmt"

	"dynunlock/internal/aig"
	"dynunlock/internal/netlist"
)

// aigComb is the AIG fast path of the combinational simulator: it
// evaluates the view's compiled graph (structural hashing, constant
// folding, cone-of-influence restriction), sweeping the flat node slice
// instead of chasing netlist fanin lists. Results are bit-identical to
// Comb on every pattern; only the traversal cost differs.
type aigComb struct {
	view *netlist.CombView
	sim  *aig.Sim
}

// View returns the underlying combinational view.
func (c *aigComb) View() *netlist.CombView { return c.view }

// EvalBits evaluates a single pattern of bools.
func (c *aigComb) EvalBits(in []bool) []bool {
	words := make([]uint64, len(in))
	for i, b := range in {
		if b {
			words[i] = 1
		}
	}
	out := c.sim.Eval(words)
	bits := make([]bool, len(out))
	for i, w := range out {
		bits[i] = w&1 == 1
	}
	return bits
}

// NewSeqAIG builds a sequential simulator whose combinational core runs on
// g, the graph aig.FromCombView compiles from v. Functionally identical to
// NewSeq. g is only read, so one graph can back many steppers at once.
func NewSeqAIG(v *netlist.CombView, g *aig.Graph) *Seq {
	if g.NumInputs() != len(v.Inputs) || len(g.Outputs()) != len(v.Outputs) {
		panic(fmt.Sprintf("sim: graph has %d inputs and %d outputs, view %d and %d",
			g.NumInputs(), len(g.Outputs()), len(v.Inputs), len(v.Outputs)))
	}
	return &Seq{comb: &aigComb{view: v, sim: aig.NewSim(g)}, state: make([]bool, len(v.N.DFFs()))}
}
