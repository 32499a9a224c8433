package fault

import (
	"math/rand"
	"strings"
	"testing"

	"dynunlock/internal/netlist"
)

func view(t testing.TB, src string) *netlist.CombView {
	t.Helper()
	n, err := netlist.ParseBench(strings.NewReader(src), "t")
	if err != nil {
		t.Fatal(err)
	}
	v, err := netlist.NewCombView(n)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

const andSrc = `
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
`

func TestDetectsANDFaults(t *testing.T) {
	v := view(t, andSrc)
	s := NewSimulator(v)
	z, _ := v.N.Lookup("z")
	a, _ := v.N.Lookup("a")

	// Patterns: (a,b) = 00, 01, 10, 11 in bits 0..3.
	in := PackPatterns([][]bool{{false, false}, {false, true}, {true, false}, {true, true}}, 2)

	// z stuck-at-0 detected only by pattern 11 (bit 3).
	if got := s.Detects(Fault{z, false}, in) & 0xF; got != 0x8 {
		t.Fatalf("z/s-a-0 detected by %04b, want 1000", got)
	}
	// z stuck-at-1 detected by 00, 01, 10.
	if got := s.Detects(Fault{z, true}, in) & 0xF; got != 0x7 {
		t.Fatalf("z/s-a-1 detected by %04b, want 0111", got)
	}
	// a stuck-at-0 detected by 11 only.
	if got := s.Detects(Fault{a, false}, in) & 0xF; got != 0x8 {
		t.Fatalf("a/s-a-0 detected by %04b", got)
	}
	// a stuck-at-1 detected by 01 (a=0,b=1 -> good 0, faulty 1).
	if got := s.Detects(Fault{a, true}, in) & 0xF; got != 0x2 {
		t.Fatalf("a/s-a-1 detected by %04b", got)
	}
}

func TestAllFaultsUniverse(t *testing.T) {
	v := view(t, andSrc)
	fs := AllFaults(v)
	// signals: a, b, z -> 6 faults.
	if len(fs) != 6 {
		t.Fatalf("got %d faults", len(fs))
	}
	if fs[0].String() == "" {
		t.Fatal("naming broken")
	}
}

func TestCampaignFullCoverage(t *testing.T) {
	v := view(t, andSrc)
	// Exhaustive patterns give 100% coverage on an AND gate.
	patterns := [][]bool{{false, false}, {false, true}, {true, false}, {true, true}}
	res := Campaign(v, AllFaults(v), patterns)
	if res.Detected != res.Total || len(res.Undetected) != 0 {
		t.Fatalf("campaign accounting: %+v", res)
	}
}

func TestCampaignRedundantFault(t *testing.T) {
	// z = OR(a, NOT(a)) is constant 1: the s-a-1 fault on z is redundant.
	src := `
INPUT(a)
OUTPUT(z)
na = NOT(a)
z = OR(a, na)
`
	v := view(t, src)
	z, _ := v.N.Lookup("z")
	res := Campaign(v, []Fault{{z, true}}, [][]bool{{false}, {true}})
	if res.Detected != 0 || len(res.Undetected) != 1 {
		t.Fatalf("redundant fault detected: %+v", res)
	}
}

// Serial single-pattern checks agree with the 64-way parallel mask for a
// random circuit and random faults.
func TestParallelAgreesWithSerial(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(x)
OUTPUT(y)
t1 = NAND(a, b)
t2 = XOR(t1, c)
t3 = NOR(b, d)
t4 = MUX(t2, t3, t1)
x = AND(t4, t2)
y = XNOR(t3, a)
`
	v := view(t, src)
	s := NewSimulator(v)
	rng := rand.New(rand.NewSource(4))
	var patterns [][]bool
	for p := 0; p < 64; p++ {
		pat := make([]bool, 4)
		for i := range pat {
			pat[i] = rng.Intn(2) == 1
		}
		patterns = append(patterns, pat)
	}
	packed := PackPatterns(patterns, 4)
	for _, f := range AllFaults(v) {
		mask := s.Detects(f, packed)
		for p := 0; p < 64; p++ {
			single := PackPatterns(patterns[p:p+1], 4)
			want := s.Detects(f, single)&1 == 1
			got := mask>>uint(p)&1 == 1
			if got != want {
				t.Fatalf("fault %v pattern %d: parallel=%v serial=%v", f, p, got, want)
			}
		}
	}
}

func TestPackPatternsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	PackPatterns([][]bool{{true}}, 2)
}
