// Package bench provides the benchmark circuits for the experiments.
//
// The paper evaluates on six ISCAS-89 and four ITC-99 netlists synthesized
// with Synopsys Design Compiler. Those netlist files are not
// redistributable and the build environment is offline, so this package
// generates deterministic synthetic circuits with the same post-synthesis
// scan-flop counts the paper reports (Table II, footnote 2) and
// representative PI/PO/gate counts. The scan-obfuscation layer — and
// therefore the attack's iteration and seed-candidate behavior — depends on
// the chain length, key size, gate placement, and LFSR, not on the
// particular combinational logic, so generic random logic preserves the
// phenomena under study (see DESIGN.md §3).
package bench

import (
	"fmt"
	"math/rand"

	"dynunlock/internal/netlist"
)

// GenConfig parameterizes synthetic circuit generation.
type GenConfig struct {
	Name  string
	PIs   int
	POs   int
	FFs   int
	Gates int   // combinational gate count
	Seed  int64 // generator seed; same seed, same circuit
}

// Generate builds a random sequential netlist: a pool of 2-input gates over
// the primary inputs and flip-flop outputs, with every flip-flop's
// next-state and every primary output drawn from the pool. The result
// always validates.
func Generate(cfg GenConfig) (*netlist.Netlist, error) {
	if cfg.PIs < 1 || cfg.POs < 1 || cfg.FFs < 2 {
		return nil, fmt.Errorf("bench: need >=1 PI, >=1 PO, >=2 FFs, got %d/%d/%d", cfg.PIs, cfg.POs, cfg.FFs)
	}
	if cfg.Gates < cfg.FFs {
		cfg.Gates = 4 * cfg.FFs
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := netlist.New(cfg.Name)

	sources := make([]netlist.SignalID, 0, cfg.PIs+cfg.FFs)
	for i := 0; i < cfg.PIs; i++ {
		id, err := n.AddInput(fmt.Sprintf("pi%d", i))
		if err != nil {
			return nil, err
		}
		sources = append(sources, id)
	}
	// Flip-flops are declared first with forward-referenced D inputs so that
	// gates can read present state.
	dNames := make([]string, cfg.FFs)
	for i := 0; i < cfg.FFs; i++ {
		dNames[i] = fmt.Sprintf("d%d", i)
		d := n.Ref(dNames[i])
		q, err := n.AddDFF(fmt.Sprintf("q%d", i), d)
		if err != nil {
			return nil, err
		}
		sources = append(sources, q)
	}

	types := []netlist.GateType{
		netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor,
	}
	pool := append([]netlist.SignalID(nil), sources...)
	gates := make([]netlist.SignalID, 0, cfg.Gates)
	for i := 0; i < cfg.Gates; i++ {
		t := types[rng.Intn(len(types))]
		// Bias one fanin toward recent signals to get non-trivial depth.
		a := pool[rng.Intn(len(pool))]
		b := pool[len(pool)-1-rng.Intn(min(len(pool), 8+len(pool)/4))]
		if a == b {
			b = pool[rng.Intn(len(pool))]
		}
		id, err := n.AddGate(fmt.Sprintf("g%d", i), t, a, b)
		if err != nil {
			return nil, err
		}
		pool = append(pool, id)
		gates = append(gates, id)
	}

	// Next-state functions: mix state and fresh logic so that the delivered
	// scan content visibly drives the captured response. The state taps go
	// through a non-linear gate: a purely linear tap (d = g XOR q) would
	// make pairs of scan masks compensate each other exactly, a structure
	// synthesized netlists do not exhibit.
	for i := 0; i < cfg.FFs; i++ {
		src := gates[rng.Intn(len(gates))]
		q1 := sources[cfg.PIs+(i+1)%cfg.FFs]
		q2 := sources[cfg.PIs+(i+2)%cfg.FFs]
		mixT := netlist.Nand
		if i%2 == 1 {
			mixT = netlist.Nor
		}
		mix, err := n.AddGate(fmt.Sprintf("mix%d", i), mixT, q1, q2)
		if err != nil {
			return nil, err
		}
		if _, err := n.AddGate(dNames[i], netlist.Xor, src, mix); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.POs; i++ {
		n.MarkOutput(gates[rng.Intn(len(gates))])
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("bench: generated netlist invalid: %w", err)
	}
	return n, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// GenerateAffine builds a purely linear sequential netlist: every
// combinational gate is XOR, XNOR, or NOT, so each flip-flop next-state and
// each primary output is an affine function of the present state and
// inputs. This is the XOR-dominated extreme of the DynUnlock threat model —
// hardware whose scan responses stay affine in the LFSR seed — and the
// reference point where GF(2)-native solving should collapse the attack to
// linear algebra (the one-copy check closes the loop on the unique
// consistent key). Layout mirrors Generate: a gate pool over PIs and flop
// outputs, next-states and outputs drawn from the pool.
func GenerateAffine(cfg GenConfig) (*netlist.Netlist, error) {
	if cfg.PIs < 1 || cfg.POs < 1 || cfg.FFs < 2 {
		return nil, fmt.Errorf("bench: need >=1 PI, >=1 PO, >=2 FFs, got %d/%d/%d", cfg.PIs, cfg.POs, cfg.FFs)
	}
	if cfg.Gates < cfg.FFs {
		cfg.Gates = 4 * cfg.FFs
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := netlist.New(cfg.Name)

	sources := make([]netlist.SignalID, 0, cfg.PIs+cfg.FFs)
	for i := 0; i < cfg.PIs; i++ {
		id, err := n.AddInput(fmt.Sprintf("pi%d", i))
		if err != nil {
			return nil, err
		}
		sources = append(sources, id)
	}
	dNames := make([]string, cfg.FFs)
	for i := 0; i < cfg.FFs; i++ {
		dNames[i] = fmt.Sprintf("d%d", i)
		d := n.Ref(dNames[i])
		q, err := n.AddDFF(fmt.Sprintf("q%d", i), d)
		if err != nil {
			return nil, err
		}
		sources = append(sources, q)
	}

	pool := append([]netlist.SignalID(nil), sources...)
	gates := make([]netlist.SignalID, 0, cfg.Gates)
	for i := 0; i < cfg.Gates; i++ {
		a := pool[rng.Intn(len(pool))]
		var (
			id  netlist.SignalID
			err error
		)
		if i%7 == 6 {
			id, err = n.AddGate(fmt.Sprintf("g%d", i), netlist.Not, a)
		} else {
			t := netlist.Xor
			if i%3 == 1 {
				t = netlist.Xnor
			}
			b := pool[len(pool)-1-rng.Intn(min(len(pool), 8+len(pool)/4))]
			if a == b {
				b = pool[rng.Intn(len(pool))]
			}
			id, err = n.AddGate(fmt.Sprintf("g%d", i), t, a, b)
		}
		if err != nil {
			return nil, err
		}
		pool = append(pool, id)
		gates = append(gates, id)
	}

	// Purely linear next-state taps: d = g XOR q. Generate deliberately
	// avoids this shape so the paper benchmarks stay non-linear; here the
	// linearity is the point under study.
	for i := 0; i < cfg.FFs; i++ {
		src := gates[rng.Intn(len(gates))]
		q := sources[cfg.PIs+(i+1)%cfg.FFs]
		if _, err := n.AddGate(dNames[i], netlist.Xor, src, q); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.POs; i++ {
		n.MarkOutput(gates[rng.Intn(len(gates))])
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("bench: generated affine netlist invalid: %w", err)
	}
	return n, nil
}

// Entry describes one paper benchmark and the synthetic stand-in
// configuration used to reproduce it.
type Entry struct {
	Name  string
	Suite string // "ISCAS-89", "ITC-99", or "affine" for the linear reference core
	FFs   int    // post-synthesis scan flops, from Table II
	PIs   int
	POs   int
	Gates int
	// Affine selects the purely linear generator (GenerateAffine); the
	// entry then models XOR-dominated hardware rather than a Table II
	// netlist.
	Affine bool
}

// Table2 lists the ten benchmarks of the paper's Table II with their
// reported post-synthesis scan-flop counts.
var Table2 = []Entry{
	{Name: "s5378", Suite: "ISCAS-89", FFs: 160, PIs: 35, POs: 49, Gates: 1200},
	{Name: "s13207", Suite: "ISCAS-89", FFs: 202, PIs: 62, POs: 152, Gates: 1600},
	{Name: "s15850", Suite: "ISCAS-89", FFs: 442, PIs: 77, POs: 150, Gates: 3200},
	{Name: "s38584", Suite: "ISCAS-89", FFs: 1233, PIs: 38, POs: 304, Gates: 9000},
	{Name: "s38417", Suite: "ISCAS-89", FFs: 1564, PIs: 28, POs: 106, Gates: 11000},
	{Name: "s35932", Suite: "ISCAS-89", FFs: 1728, PIs: 35, POs: 320, Gates: 12000},
	{Name: "b20", Suite: "ITC-99", FFs: 429, PIs: 32, POs: 22, Gates: 3400},
	{Name: "b21", Suite: "ITC-99", FFs: 429, PIs: 32, POs: 22, Gates: 3400},
	{Name: "b22", Suite: "ITC-99", FFs: 611, PIs: 32, POs: 22, Gates: 4800},
	{Name: "b17", Suite: "ITC-99", FFs: 864, PIs: 37, POs: 97, Gates: 6800},
}

// AffineRef is the linear reference core: an XOR/XNOR-only netlist sized
// like the smaller Table II circuits. It is not a paper benchmark — it is
// the XOR-dominated limit case of the threat model, used to demonstrate
// the CNF-vs-native-GF(2) crossover (bench/bundles/affine records it).
var AffineRef = Entry{
	Name: "affine", Suite: "affine", FFs: 160, PIs: 35, POs: 49, Gates: 1200, Affine: true,
}

// ByName returns the Table II entry — or the affine reference core — with
// the given name.
func ByName(name string) (Entry, bool) {
	for _, e := range Table2 {
		if e.Name == name {
			return e, true
		}
	}
	if name == AffineRef.Name {
		return AffineRef, true
	}
	return Entry{}, false
}

// Build instantiates the synthetic stand-in for a Table II entry. The
// circuit is deterministic per (entry, variant): variant selects among
// structurally different instances for multi-trial averaging.
func (e Entry) Build(variant int64) (*netlist.Netlist, error) {
	cfg := GenConfig{
		Name:  e.Name,
		PIs:   e.PIs,
		POs:   e.POs,
		FFs:   e.FFs,
		Gates: e.Gates,
		Seed:  hashSeed(e.Name) + variant,
	}
	if e.Affine {
		return GenerateAffine(cfg)
	}
	return Generate(cfg)
}

func hashSeed(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h
}

// Scaled returns a copy of the entry with flop and gate counts divided by
// factor (minimum 8 flops), for fast CI-scale runs of the paper's
// experiments. PI/PO counts are reduced proportionally but kept >= 4.
func (e Entry) Scaled(factor int) Entry {
	if factor <= 1 {
		return e
	}
	s := e
	s.Name = fmt.Sprintf("%s/%d", e.Name, factor)
	s.FFs = max(8, e.FFs/factor)
	s.Gates = max(32, e.Gates/factor)
	s.PIs = max(4, e.PIs/factor)
	s.POs = max(4, e.POs/factor)
	return s
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
