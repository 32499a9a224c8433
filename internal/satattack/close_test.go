package satattack

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"dynunlock/internal/aig"
	"dynunlock/internal/netlist"
	"dynunlock/internal/sim"
	"dynunlock/internal/trace"
)

// bruteForceKeys lists, in canonical order, every key under which the
// locked graph matches the oracle on all 2^len(InIdx) inputs.
func bruteForceKeys(l *Locked, oracle Oracle) []string {
	c := aig.NewSim(l.Graph)
	nIn, nKey := len(l.InIdx), len(l.KeyIdx)
	full := make([]uint64, l.Graph.NumInputs())
	var keys []string
	for kv := 0; kv < 1<<nKey; kv++ {
		key := make([]bool, nKey)
		for i := range key {
			key[i] = kv>>i&1 == 1
			full[l.KeyIdx[i]] = uint64(kv >> i & 1)
		}
		match := true
		for iv := 0; iv < 1<<nIn && match; iv++ {
			in := make([]bool, nIn)
			for i := range in {
				in[i] = iv>>i&1 == 1
				full[l.InIdx[i]] = uint64(iv >> i & 1)
			}
			out, resp := c.Eval(full), oracle.Query(in)
			match = len(out) == len(resp)
			for o := 0; match && o < len(out); o++ {
				match = (out[o]&1 == 1) == resp[o]
			}
		}
		if match {
			keys = append(keys, bitString(key))
		}
	}
	slices.Sort(keys)
	return keys
}

// freeKeyBitLocked is TestEnumerationCountsFreeKeyBits's circuit: z =
// a XOR k0, with a key bit k1 that no output observes, so two keys are
// correct.
func freeKeyBitLocked(t *testing.T) (*Locked, Oracle) {
	t.Helper()
	n := netlist.New("free")
	a, _ := n.AddInput("a")
	k0, _ := n.AddInput("k0")
	k1, _ := n.AddInput("k1")
	x, _ := n.AddGate("x", netlist.Xor, a, k0)
	n.AddGate("dead", netlist.And, k1, k1)
	n.MarkOutput(x)
	v, err := netlist.NewCombView(n)
	if err != nil {
		t.Fatal(err)
	}
	l := mustLock(t, v, func(i int, s netlist.SignalID) bool {
		name := v.N.SignalName(s)
		return name == "k0" || name == "k1"
	})
	return l, OracleFunc(func(in []bool) []bool { return []bool{!in[0]} })
}

// TestClosingRuleMatchesBruteForce checks how the DIP loop closes against
// the brute-forced set of keys that match the oracle on every input. The
// candidates are exactly that set; the loop closes "unique" exactly when
// the set has one member and "miter" otherwise; and only a miter close
// runs the extract and enumerate stages.
func TestClosingRuleMatchesBruteForce(t *testing.T) {
	type instance struct {
		name   string
		l      *Locked
		oracle Oracle
	}
	var cases []instance
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 24; i++ {
		orig, locked, _ := lockedPair(rng, 3+rng.Intn(6), 12+rng.Intn(40), 1+rng.Intn(8))
		l := mustLock(t, locked, func(i int, s netlist.SignalID) bool {
			return locked.N.SignalName(s)[0] == 'k'
		})
		cases = append(cases, instance{"lockedPair", l, &simOracle{c: sim.NewComb(orig)}})
	}
	l, o := freeKeyBitLocked(t)
	cases = append(cases, instance{"free-bit", l, o})

	closes := map[Close]int{}
	for i, c := range cases {
		want := bruteForceKeys(c.l, c.oracle)
		col := trace.NewCollector()
		res, err := RunCtx(trace.With(context.Background(), col), c.l, c.oracle,
			Options{EnumerateLimit: 1 << len(c.l.KeyIdx)})
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, c.name, err)
		}
		if got := keySet(res.Candidates); !res.CandidatesExact || !slices.Equal(got, want) {
			t.Fatalf("case %d (%s): candidates %v (exact=%v), brute force %v", i, c.name, got, res.CandidatesExact, want)
		}
		wantClose := CloseMiter
		if len(want) == 1 {
			wantClose = CloseUnique
		}
		if !res.Converged || res.Closed != wantClose {
			t.Fatalf("case %d (%s): converged=%v closed=%q, want %q for %d consistent keys",
				i, c.name, res.Converged, res.Closed, wantClose, len(want))
		}
		closes[res.Closed]++
		spans := map[string]int{}
		for _, sp := range col.Spans() {
			spans[sp.Name]++
		}
		miterClose := res.Closed == CloseMiter
		if (spans["extract"] > 0) != miterClose || (spans["enumerate"] > 0) != miterClose {
			t.Fatalf("case %d (%s): closed %q with spans %v", i, c.name, res.Closed, spans)
		}
		if spans["unique"] != res.Iterations {
			t.Fatalf("case %d (%s): %d unique spans for %d DIPs", i, c.name, spans["unique"], res.Iterations)
		}
	}
	if closes[CloseUnique] == 0 || closes[CloseMiter] == 0 {
		t.Fatalf("closes %v: want both kinds exercised", closes)
	}
}
