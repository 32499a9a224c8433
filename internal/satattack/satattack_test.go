package satattack

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dynunlock/internal/cnf"
	"dynunlock/internal/netlist"
	"dynunlock/internal/sat"
	"dynunlock/internal/sim"
)

// mustLock is NewLocked for a view the test knows to be valid.
func mustLock(t testing.TB, v *netlist.CombView, isKey func(i int, s netlist.SignalID) bool) *Locked {
	t.Helper()
	l, err := NewLocked(v, isKey)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// lockedPair builds a random combinational circuit and an XOR-locked
// version of it (EPIC-style logic locking): key gate i re-encodes an
// internal wire with key bit i; the correct key correctKey restores the
// original function.
func lockedPair(rng *rand.Rand, nIn, nGates, nKeys int) (orig, locked *netlist.CombView, correctKey []bool) {
	build := func(lockIt bool, key []bool) *netlist.CombView {
		n := netlist.New("c")
		var sigs []netlist.SignalID
		for i := 0; i < nIn; i++ {
			id, _ := n.AddInput("")
			sigs = append(sigs, id)
		}
		var keys []netlist.SignalID
		if lockIt {
			for i := 0; i < nKeys; i++ {
				id, _ := n.AddInput("k" + string(rune('0'+i)))
				keys = append(keys, id)
			}
		}
		gateRng := rand.New(rand.NewSource(12345)) // same structure both builds
		types := []netlist.GateType{netlist.And, netlist.Or, netlist.Xor, netlist.Nand, netlist.Nor}
		lockAt := map[int]int{} // gate index -> key index
		for i := 0; i < nKeys; i++ {
			lockAt[nGates*i/nKeys] = i
		}
		for i := 0; i < nGates; i++ {
			t := types[gateRng.Intn(len(types))]
			a := sigs[gateRng.Intn(len(sigs))]
			b := sigs[gateRng.Intn(len(sigs))]
			id, err := n.AddGate("", t, a, b)
			if err != nil {
				panic(err)
			}
			if ki, ok := lockAt[i]; ok {
				gt := netlist.Xor
				if key[ki] {
					gt = netlist.Xnor // correct key bit 1 must invert back
				}
				if lockIt {
					id, err = n.AddGate("", gt, id, keys[ki])
					if err != nil {
						panic(err)
					}
				} else if key[ki] {
					// Original circuit: the locked version XNORs with a key
					// whose correct value is 1, which is the identity; the
					// original needs no change either way.
					_ = gt
				}
			}
			sigs = append(sigs, id)
		}
		for i := 0; i < 3; i++ {
			n.MarkOutput(sigs[len(sigs)-1-i])
		}
		v, err := netlist.NewCombView(n)
		if err != nil {
			panic(err)
		}
		return v
	}
	correctKey = make([]bool, nKeys)
	for i := range correctKey {
		correctKey[i] = rng.Intn(2) == 1
	}
	orig = build(false, correctKey)
	locked = build(true, correctKey)
	return orig, locked, correctKey
}

// simOracle answers queries by simulating the original circuit.
type simOracle struct {
	c       *sim.Comb
	queries int
}

func (o *simOracle) Query(in []bool) []bool {
	o.queries++
	return o.c.EvalBits(in)
}

func TestAttackRecoversEquivalentKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		nIn := 4 + rng.Intn(4)
		orig, locked, _ := lockedPair(rng, nIn, 30+rng.Intn(40), 4+rng.Intn(4))
		l := mustLock(t, locked, func(i int, s netlist.SignalID) bool {
			return len(locked.N.SignalName(s)) > 0 && locked.N.SignalName(s)[0] == 'k'
		})
		oracle := &simOracle{c: sim.NewComb(orig)}
		res, err := RunCtx(context.Background(), l, oracle, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: did not converge", trial)
		}
		// The recovered key must make the locked circuit equivalent to the
		// original on every input.
		checkEquivalent(t, orig, locked, l, res.Key)
		if res.Queries != res.Iterations {
			t.Fatalf("queries %d != iterations %d", res.Queries, res.Iterations)
		}
	}
}

// Every enumerated candidate must unlock the circuit, the class must be
// complete under the limit, and it is reported in canonical (sorted)
// order.
func TestEnumeratedCandidatesUnlock(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 4; trial++ {
		orig, locked, _ := lockedPair(rng, 5+rng.Intn(3), 40+rng.Intn(30), 5)
		l := mustLock(t, locked, func(i int, s netlist.SignalID) bool {
			return len(locked.N.SignalName(s)) > 0 && locked.N.SignalName(s)[0] == 'k'
		})
		res, err := RunCtx(context.Background(), l, &simOracle{c: sim.NewComb(orig)}, Options{EnumerateLimit: 64})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Converged || !res.CandidatesExact {
			t.Fatalf("trial %d: converged=%v exact=%v", trial, res.Converged, res.CandidatesExact)
		}
		if got := keySet(res.Candidates); !sort.StringsAreSorted(got) {
			t.Fatalf("trial %d: candidates not in canonical order: %v", trial, got)
		}
		for _, k := range res.Candidates {
			checkEquivalent(t, orig, locked, l, k)
		}
	}
}

// Repeated attacks on the same instance must recover the same candidate
// class, in the same canonical order, with the same convergence status and
// DIP count: the search has no source of run-to-run variation.
func TestDeterministicCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 4; trial++ {
		orig, locked, _ := lockedPair(rng, 5+rng.Intn(3), 40+rng.Intn(30), 5)
		l := mustLock(t, locked, func(i int, s netlist.SignalID) bool {
			return len(locked.N.SignalName(s)) > 0 && locked.N.SignalName(s)[0] == 'k'
		})
		var ref *Result
		for run := 0; run < 3; run++ {
			res, err := RunCtx(context.Background(), l, &simOracle{c: sim.NewComb(orig)}, Options{EnumerateLimit: 64})
			if err != nil {
				t.Fatalf("trial %d run %d: %v", trial, run, err)
			}
			if !res.CandidatesExact {
				t.Fatalf("trial %d run %d: enumeration not exact", trial, run)
			}
			got := keySet(res.Candidates)
			if !sort.StringsAreSorted(got) {
				t.Fatalf("trial %d run %d: candidates not in canonical order: %v", trial, run, got)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.Converged != ref.Converged || res.Iterations != ref.Iterations {
				t.Fatalf("trial %d run %d: converged=%v iterations=%d, want %v/%d",
					trial, run, res.Converged, res.Iterations, ref.Converged, ref.Iterations)
			}
			want := keySet(ref.Candidates)
			if len(got) != len(want) {
				t.Fatalf("trial %d run %d: %d candidates, want %d", trial, run, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d run %d: candidate set differs at %d: %s vs %s",
						trial, run, i, got[i], want[i])
				}
			}
		}
	}
}

// keySet renders keys as bit strings in their returned order.
func keySet(cands [][]bool) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = bitString(c)
	}
	return out
}

func checkEquivalent(t *testing.T, orig, locked *netlist.CombView, l *Locked, key []bool) {
	t.Helper()
	so, sl := sim.NewComb(orig), sim.NewComb(locked)
	nIn := len(orig.Inputs)
	full := make([]bool, len(locked.Inputs))
	for i, idx := range l.KeyIdx {
		full[idx] = key[i]
	}
	rng := rand.New(rand.NewSource(99))
	patterns := 1 << uint(nIn)
	exhaustive := patterns <= 256
	if !exhaustive {
		patterns = 256
	}
	for p := 0; p < patterns; p++ {
		in := make([]bool, nIn)
		for i := range in {
			if exhaustive {
				in[i] = p>>uint(i)&1 == 1
			} else {
				in[i] = rng.Intn(2) == 1
			}
		}
		for i, idx := range l.InIdx {
			full[idx] = in[i]
		}
		want := so.EvalBits(in)
		got := sl.EvalBits(full)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pattern %d output %d: locked(key)=%v orig=%v", p, i, got[i], want[i])
			}
		}
	}
}

// A key bit with no effect on the outputs doubles the candidate count.
func TestEnumerationCountsFreeKeyBits(t *testing.T) {
	n := netlist.New("free")
	a, _ := n.AddInput("a")
	k0, _ := n.AddInput("k0")
	k1, _ := n.AddInput("k1")
	x, _ := n.AddGate("x", netlist.Xor, a, k0)
	dead, _ := n.AddGate("dead", netlist.And, k1, k1) // never observed
	_ = dead
	n.MarkOutput(x)
	v, err := netlist.NewCombView(n)
	if err != nil {
		t.Fatal(err)
	}
	l := mustLock(t, v, func(i int, s netlist.SignalID) bool {
		name := v.N.SignalName(s)
		return name == "k0" || name == "k1"
	})
	// Oracle: correct k0 = 1, so output = !a.
	oracle := OracleFunc(func(in []bool) []bool { return []bool{!in[0]} })
	res, err := RunCtx(context.Background(), l, oracle, Options{EnumerateLimit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CandidatesExact {
		t.Fatal("enumeration must be exact under the limit")
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("got %d candidates, want 2 (free k1)", len(res.Candidates))
	}
	for _, c := range res.Candidates {
		k0i := 0
		if v.N.SignalName(v.Inputs[l.KeyIdx[0]]) != "k0" {
			k0i = 1
		}
		if !c[k0i] {
			t.Fatalf("candidate %v has wrong k0", c)
		}
	}
}

func TestEnumerationLimit(t *testing.T) {
	// Two free key bits -> 4 candidates; limit 3 must report inexact.
	n := netlist.New("free2")
	a, _ := n.AddInput("a")
	n.AddInput("k0")
	n.AddInput("k1")
	buf, _ := n.AddGate("z", netlist.Buf, a)
	n.MarkOutput(buf)
	v, _ := netlist.NewCombView(n)
	l := mustLock(t, v, func(i int, s netlist.SignalID) bool {
		name := v.N.SignalName(s)
		return name == "k0" || name == "k1"
	})
	oracle := OracleFunc(func(in []bool) []bool { return []bool{in[0]} })
	res, err := RunCtx(context.Background(), l, oracle, Options{EnumerateLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 3 || res.CandidatesExact {
		t.Fatalf("got %d candidates exact=%v, want 3 inexact", len(res.Candidates), res.CandidatesExact)
	}
	res, err = RunCtx(context.Background(), l, oracle, Options{EnumerateLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 4 || !res.CandidatesExact {
		t.Fatalf("got %d candidates exact=%v, want 4 exact", len(res.Candidates), res.CandidatesExact)
	}
}

func TestInconsistentOracle(t *testing.T) {
	// Oracle response that no key explains: z1 = a XOR k demands k=0 while
	// z2 = k demands k=1 in the same answer.
	n := netlist.New("inc")
	a, _ := n.AddInput("a")
	k, _ := n.AddInput("k")
	x, _ := n.AddGate("x", netlist.Xor, a, k)
	kb, _ := n.AddGate("kb", netlist.Buf, k)
	n.MarkOutput(x)
	n.MarkOutput(kb)
	v, _ := netlist.NewCombView(n)
	l := mustLock(t, v, func(i int, s netlist.SignalID) bool { return v.N.SignalName(s) == "k" })
	oracle := OracleFunc(func(in []bool) []bool {
		return []bool{in[0], true} // z1 says k=0, z2 says k=1
	})
	_, err := RunCtx(context.Background(), l, oracle, Options{})
	if !errors.Is(err, ErrUnsat) {
		t.Fatalf("inconsistent oracle: err = %v, want ErrUnsat", err)
	}
}

func TestMaxIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orig, locked, _ := lockedPair(rng, 6, 40, 5)
	l := mustLock(t, locked, func(i int, s netlist.SignalID) bool {
		return locked.N.SignalName(s)[0] == 'k'
	})
	oracle := &simOracle{c: sim.NewComb(orig)}
	res, err := RunCtx(context.Background(), l, oracle, Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 1 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

// Options.Log receives exactly one line per DIP, in the engine's single
// format.
func TestLogOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	orig, locked, _ := lockedPair(rng, 5, 30, 3)
	l := mustLock(t, locked, func(i int, s netlist.SignalID) bool {
		return locked.N.SignalName(s)[0] == 'k'
	})
	format := regexp.MustCompile(`^iter (\d+): dip=[01]{5} clauses=\d+ conflicts=\d+$`)
	var buf bytes.Buffer
	res, err := RunCtx(context.Background(), l, &simOracle{c: sim.NewComb(orig)}, Options{Log: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("no DIPs, so the log is not exercised")
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != res.Iterations {
		t.Fatalf("%d log lines for %d DIPs:\n%s", len(lines), res.Iterations, buf.String())
	}
	for i, line := range lines {
		m := format.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %q does not match %v", line, format)
		}
		if m[1] != strconv.Itoa(i+1) {
			t.Fatalf("line %d reports iteration %s", i+1, m[1])
		}
	}
}

func TestLockedValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, locked, _ := lockedPair(rng, 4, 10, 2)
	good := mustLock(t, locked, func(i int, s netlist.SignalID) bool {
		return locked.N.SignalName(s)[0] == 'k'
	})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLocked(locked, func(i int, s netlist.SignalID) bool { return false }); err == nil {
		t.Fatal("want error for no key inputs")
	}
	dup := &Locked{Graph: good.Graph, KeyIdx: []int{0, 0}, InIdx: nil}
	if err := dup.Validate(); err == nil {
		t.Fatal("want error for duplicate index")
	}
	oob := &Locked{Graph: good.Graph, KeyIdx: []int{999}}
	if err := oob.Validate(); err == nil {
		t.Fatal("want error for out-of-range index")
	}
}

// TestDumpCNF solves every per-iteration dump cold: each is the formula
// the next DIP solve decides, so every dump but the last is satisfiable
// (another DIP exists) and the last, after which the loop closed, is not.
func TestDumpCNF(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	orig, locked, _ := lockedPair(rng, 10, 120, 8)
	l := mustLock(t, locked, func(i int, s netlist.SignalID) bool {
		return locked.N.SignalName(s)[0] == 'k'
	})
	var status []sat.Status
	opts := Options{DumpCNF: func(iter int, dump func(w io.Writer) error) {
		var buf bytes.Buffer
		if err := dump(&buf); err != nil {
			t.Fatal(err)
		}
		f, err := cnf.ParseDimacs(&buf)
		if err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		s := sat.New()
		s.AddFormula(f)
		status = append(status, s.Solve())
	}}
	res, err := RunCtx(context.Background(), l, &simOracle{c: sim.NewComb(orig)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations < 2 || len(status) != res.Iterations {
		t.Fatalf("converged=%v after %d DIPs with %d dumps; want a converged attack of at least two DIPs, one dump each",
			res.Converged, res.Iterations, len(status))
	}
	for i, st := range status {
		if want := i < len(status)-1; (st == sat.Sat) != want || st == sat.Unknown {
			t.Errorf("dump %d of %d solves %v, want satisfiable=%v", i+1, len(status), st, want)
		}
	}
}
