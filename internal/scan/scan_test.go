package scan

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestPolicySteps(t *testing.T) {
	cases := []struct {
		p             Policy
		pat, cyc, per int
		want          int
	}{
		{Static, 5, 9, 1, 0},
		{PerPattern, 0, 9, 1, 0},
		{PerPattern, 5, 9, 1, 5},
		{PerPattern, 5, 9, 2, 2},
		{PerPattern, 5, 9, 0, 5}, // period defaulted to 1
		{PerCycle, 0, 9, 1, 9},
		{PerCycle, 0, 0, 1, 0},
	}
	for _, tc := range cases {
		if got := tc.p.Steps(tc.pat, tc.cyc, tc.per); got != tc.want {
			t.Errorf("%v.Steps(%d,%d,%d) = %d, want %d", tc.p, tc.pat, tc.cyc, tc.per, got, tc.want)
		}
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		Static: "static(EFF)", PerPattern: "per-pattern(DOS)", PerCycle: "per-cycle(EFF-Dyn)",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}

func TestChainValidate(t *testing.T) {
	cases := []struct {
		name    string
		c       Chain
		keyBits int
		ok      bool
	}{
		{"good", Chain{Length: 8, Gates: []KeyGate{{1, 0}, {5, 2}}}, 3, true},
		{"short chain", Chain{Length: 1}, 3, false},
		{"link 0", Chain{Length: 8, Gates: []KeyGate{{0, 0}}}, 3, false},
		{"link == n", Chain{Length: 8, Gates: []KeyGate{{8, 0}}}, 3, false},
		{"key bit oob", Chain{Length: 8, Gates: []KeyGate{{1, 3}}}, 3, false},
		{"neg key bit", Chain{Length: 8, Gates: []KeyGate{{1, -1}}}, 3, false},
		{"same link, other key bit", Chain{Length: 8, Gates: []KeyGate{{1, 0}, {1, 1}}}, 3, true},
		{"gates that cancel", Chain{Length: 8, Gates: []KeyGate{{1, 0}, {5, 2}, {1, 0}}}, 3, false},
	}
	for _, tc := range cases {
		if err := tc.c.Validate(tc.keyBits); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// The paper's Fig. 1 example: 8 flops, gates after flops 1, 2, 5.
func fig1Chain() Chain {
	return Chain{Length: 8, Gates: []KeyGate{{Link: 1, KeyBit: 0}, {Link: 2, KeyBit: 1}, {Link: 5, KeyBit: 2}}}
}

func TestInMaskTermsFig1(t *testing.T) {
	c := fig1Chain()
	// Flop 0 crosses no links.
	if got := c.InMaskTerms(0); len(got) != 0 {
		t.Fatalf("flop 0 terms = %v", got)
	}
	// Flop 7 (enters at cycle 0) crosses links 1,2,5 at cycles 1,2,5.
	got := c.InMaskTerms(7)
	want := []Term{{1, 0}, {2, 1}, {5, 2}}
	if len(got) != len(want) {
		t.Fatalf("flop 7 terms = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flop 7 term %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Flop 3 (enters at cycle 4) crosses links 1,2 at cycles 5,6.
	got = c.InMaskTerms(3)
	want = []Term{{5, 0}, {6, 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flop 3 term %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestOutMaskTermsFig1(t *testing.T) {
	c := fig1Chain()
	// Flop 7 is read directly: no links crossed.
	if got := c.OutMaskTerms(7); len(got) != 0 {
		t.Fatalf("flop 7 out terms = %v", got)
	}
	// Flop 0 crosses links 1,2,5 at cycles n+1-0=9, 10, 13.
	got := c.OutMaskTerms(0)
	want := []Term{{9, 0}, {10, 1}, {13, 2}}
	if len(got) != len(want) {
		t.Fatalf("flop 0 out terms = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flop 0 out term %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Flop 4 crosses link 5 at cycle 8+5-4=9.
	got = c.OutMaskTerms(4)
	if len(got) != 1 || got[0] != (Term{9, 2}) {
		t.Fatalf("flop 4 out terms = %v", got)
	}
}

func TestMaskTermCyclesInRange(t *testing.T) {
	c := Chain{Length: 12, Gates: SpreadGates(12, 8, 8)}
	for j := 0; j < c.Length; j++ {
		for _, term := range c.InMaskTerms(j) {
			if term.Cycle < 0 || term.Cycle >= c.CaptureCycle() {
				t.Fatalf("in term cycle %d outside shift-in window", term.Cycle)
			}
		}
		for _, term := range c.OutMaskTerms(j) {
			if term.Cycle <= c.CaptureCycle() || term.Cycle > 2*c.Length {
				t.Fatalf("out term cycle %d outside shift-out window", term.Cycle)
			}
		}
	}
	if c.SessionCycles() != 25 {
		t.Fatalf("SessionCycles = %d", c.SessionCycles())
	}
}

func TestSpreadGates(t *testing.T) {
	g := SpreadGates(160, 128, 128)
	if len(g) != 128 {
		t.Fatalf("len = %d", len(g))
	}
	seen := map[int]bool{}
	for i, kg := range g {
		if kg.Link < 1 || kg.Link > 159 {
			t.Fatalf("gate %d link %d out of range", i, kg.Link)
		}
		if seen[kg.Link] {
			t.Fatalf("duplicate link %d with count <= links", kg.Link)
		}
		seen[kg.Link] = true
		if kg.KeyBit != i {
			t.Fatalf("gate %d keybit %d", i, kg.KeyBit)
		}
	}
	c := Chain{Length: 160, Gates: g}
	if err := c.Validate(128); err != nil {
		t.Fatal(err)
	}
}

func TestSpreadGatesMoreThanLinks(t *testing.T) {
	g := SpreadGates(5, 10, 10) // 4 links, 10 gates: links reused
	if len(g) != 10 {
		t.Fatalf("len = %d", len(g))
	}
	c := Chain{Length: 5, Gates: g}
	if err := c.Validate(10); err != nil {
		t.Fatal(err)
	}
	bits := map[int]bool{}
	for _, kg := range g {
		bits[kg.KeyBit] = true
	}
	if len(bits) != 10 {
		t.Fatalf("key bits used: %d, want 10", len(bits))
	}
}

// TestSpreadGatesNeverRepeatsAPair sweeps 2–12 flops, 1–8 key bits and
// every gate count up to links × key bits: no (link, key bit) pair
// repeats, so every placement validates. It pins the 3-flop placement that
// used to repeat both pairs ([{1 0} {1 1} {1 0} {1 1}]), and the
// placement of s5378 at 1/32 (8 gates on 7 links), which repeated none and
// keeps its place.
func TestSpreadGatesNeverRepeatsAPair(t *testing.T) {
	for length := 2; length <= 12; length++ {
		for keyBits := 1; keyBits <= 8; keyBits++ {
			for count := 1; count <= (length-1)*keyBits; count++ {
				c := Chain{Length: length, Gates: SpreadGates(length, count, keyBits)}
				if err := c.Validate(keyBits); err != nil {
					t.Fatalf("SpreadGates(%d, %d, %d) = %v: %v", length, count, keyBits, c.Gates, err)
				}
			}
		}
	}
	for _, tc := range []struct {
		length, count, keyBits int
		want                   []KeyGate
	}{
		{3, 4, 2, []KeyGate{{1, 0}, {1, 1}, {2, 0}, {2, 1}}},
		{8, 8, 8, []KeyGate{{1, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}, {1, 7}}},
	} {
		if got := SpreadGates(tc.length, tc.count, tc.keyBits); !slices.Equal(got, tc.want) {
			t.Errorf("SpreadGates(%d, %d, %d) = %v, want %v", tc.length, tc.count, tc.keyBits, got, tc.want)
		}
	}
}

func TestSpreadGatesDegenerate(t *testing.T) {
	if SpreadGates(1, 3, 3) != nil || SpreadGates(8, 0, 3) != nil || SpreadGates(8, 3, 0) != nil {
		t.Fatal("degenerate inputs must return nil")
	}
}

func TestMaskTermsPanicOnBadFlop(t *testing.T) {
	c := fig1Chain()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	c.InMaskTerms(8)
}

// Property: for random chains, every in-mask term cycle lies strictly
// before the capture cycle, every out-mask term strictly after, and a
// gate's key bit appears in the in-mask of exactly the flops at or past
// its link.
func TestMaskTermsQuick(t *testing.T) {
	f := func(lengthSeed, gateSeed uint8) bool {
		length := 2 + int(lengthSeed%30)
		nGates := 1 + int(gateSeed%10)
		c := Chain{Length: length, Gates: SpreadGates(length, nGates, nGates)}
		for j := 0; j < length; j++ {
			inTerms := c.InMaskTerms(j)
			for _, term := range inTerms {
				if term.Cycle < 0 || term.Cycle >= c.CaptureCycle() {
					return false
				}
			}
			for _, term := range c.OutMaskTerms(j) {
				if term.Cycle <= c.CaptureCycle() || term.Cycle > 2*length {
					return false
				}
			}
			// Count of in-terms equals gates with link <= j.
			want := 0
			for _, g := range c.Gates {
				if g.Link <= j {
					want++
				}
			}
			if len(inTerms) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: multi-capture out-mask cycles are the single-capture cycles
// shifted by captures-1.
func TestOutMaskTermsNShiftQuick(t *testing.T) {
	f := func(lengthSeed, capSeed uint8) bool {
		length := 2 + int(lengthSeed%30)
		captures := 1 + int(capSeed%4)
		c := Chain{Length: length, Gates: SpreadGates(length, 4, 4)}
		for j := 0; j < length; j++ {
			base := c.OutMaskTerms(j)
			multi := c.OutMaskTermsN(j, captures)
			if len(base) != len(multi) {
				return false
			}
			for i := range base {
				if multi[i].Cycle != base[i].Cycle+captures-1 || multi[i].KeyBit != base[i].KeyBit {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
