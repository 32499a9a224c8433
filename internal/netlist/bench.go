package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseBench reads an ISCAS-89 ".bench" netlist. Supported statements:
//
//	INPUT(name)          OUTPUT(name)
//	name = GATE(a, b, …) with GATE ∈ {AND, NAND, OR, NOR, XOR, XNOR,
//	                                   NOT, BUF, BUFF, MUX, DFF}
//	name = gnd / vcc     (constants, a common extension)
//	# comment
//
// Forward references are allowed, as in the published benchmark files.
func ParseBench(r io.Reader, name string) (*Netlist, error) {
	n := New(name)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	var outputs []string
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		switch {
		case hasPrefixFold(line, "INPUT"):
			arg, err := parseParen(line, "INPUT")
			if err != nil {
				return nil, fmt.Errorf("bench:%d: %w", lineNo, err)
			}
			if _, err := n.AddInput(arg); err != nil {
				return nil, fmt.Errorf("bench:%d: %w", lineNo, err)
			}
		case hasPrefixFold(line, "OUTPUT"):
			arg, err := parseParen(line, "OUTPUT")
			if err != nil {
				return nil, fmt.Errorf("bench:%d: %w", lineNo, err)
			}
			outputs = append(outputs, arg)
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, fmt.Errorf("bench:%d: unrecognized statement %q", lineNo, line)
			}
			lhs := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			if lhs == "" {
				return nil, fmt.Errorf("bench:%d: empty signal name", lineNo)
			}
			if err := parseRHS(n, lhs, rhs); err != nil {
				return nil, fmt.Errorf("bench:%d: %w", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: read: %w", err)
	}
	for _, o := range outputs {
		n.MarkOutput(n.Ref(o))
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix) &&
		(len(s) == len(prefix) || s[len(prefix)] == '(' || s[len(prefix)] == ' ')
}

func parseParen(line, keyword string) (string, error) {
	rest := strings.TrimSpace(line[len(keyword):])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return "", fmt.Errorf("malformed %s statement %q", keyword, line)
	}
	arg := strings.TrimSpace(rest[1 : len(rest)-1])
	if arg == "" {
		return "", fmt.Errorf("empty %s argument", keyword)
	}
	return arg, nil
}

var benchGate = map[string]GateType{
	"AND": And, "NAND": Nand, "OR": Or, "NOR": Nor, "XOR": Xor,
	"XNOR": Xnor, "NOT": Not, "BUF": Buf, "BUFF": Buf, "MUX": Mux,
	"DFF": DFF,
}

func parseRHS(n *Netlist, lhs, rhs string) error {
	switch strings.ToLower(rhs) {
	case "gnd":
		_, err := n.AddConst(lhs, false)
		return err
	case "vcc":
		_, err := n.AddConst(lhs, true)
		return err
	}
	open := strings.IndexByte(rhs, '(')
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return fmt.Errorf("malformed gate expression %q", rhs)
	}
	op := strings.ToUpper(strings.TrimSpace(rhs[:open]))
	t, ok := benchGate[op]
	if !ok {
		return fmt.Errorf("unknown gate type %q", op)
	}
	var fanin []SignalID
	for _, a := range strings.Split(rhs[open+1:len(rhs)-1], ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return fmt.Errorf("empty fanin in %q", rhs)
		}
		fanin = append(fanin, n.Ref(a))
	}
	if t == DFF {
		if len(fanin) != 1 {
			return fmt.Errorf("DFF takes exactly one fanin, got %d", len(fanin))
		}
		// define directly so forward references resolve
		_, err := n.define(lhs, Gate{Type: DFF, Fanin: fanin})
		return err
	}
	if err := checkArity(t, len(fanin)); err != nil {
		return err
	}
	_, err := n.define(lhs, Gate{Type: t, Fanin: fanin})
	return err
}

// WriteBench writes the netlist in ".bench" format. Signals are emitted in
// definition order, which is always a legal bench ordering because the
// format permits forward references.
func (n *Netlist) WriteBench(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", n.Name)
	st := n.Stats()
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d D-type flipflops, %d gates\n",
		st.PIs, st.POs, st.DFFs, st.Gates)
	for _, pi := range n.pis {
		fmt.Fprintf(bw, "INPUT(%s)\n", n.names[pi])
	}
	for _, po := range n.pos {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", n.names[po])
	}
	for id, g := range n.gates {
		switch g.Type {
		case Input:
			continue
		case Const0:
			fmt.Fprintf(bw, "%s = gnd\n", n.names[id])
		case Const1:
			fmt.Fprintf(bw, "%s = vcc\n", n.names[id])
		default:
			args := make([]string, len(g.Fanin))
			for i, f := range g.Fanin {
				args[i] = n.names[f]
			}
			op := g.Type.String()
			fmt.Fprintf(bw, "%s = %s(%s)\n", n.names[id], op, strings.Join(args, ", "))
		}
	}
	return bw.Flush()
}

// CombView presents a sequential netlist as a pure combinational function
// for simulation, encoding, and attack modeling:
//
//	inputs:  primary inputs, then DFF present-state (Q) signals
//	outputs: primary outputs, then DFF next-state (D) signals
type CombView struct {
	N *Netlist
	// Inputs lists PI signals followed by DFF Q signals.
	Inputs []SignalID
	// Outputs lists PO signals followed by DFF D signals.
	Outputs []SignalID
	// NumPI and NumPO give the split points within Inputs/Outputs.
	NumPI, NumPO int
	// Order is a topological order of the combinational gates.
	Order []SignalID
}

// NewCombView builds the combinational view of n. n must validate.
func NewCombView(n *Netlist) (*CombView, error) {
	order, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	v := &CombView{N: n, NumPI: len(n.pis), NumPO: len(n.pos), Order: order}
	v.Inputs = append(append([]SignalID(nil), n.pis...), n.dffs...)
	v.Outputs = append([]SignalID(nil), n.pos...)
	for _, q := range n.dffs {
		v.Outputs = append(v.Outputs, n.gates[q].Fanin[0])
	}
	return v, nil
}
