package satattack

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dynunlock/internal/encode"
	"dynunlock/internal/netlist"
	"dynunlock/internal/sat"
	"dynunlock/internal/sim"
)

// poolRun is what an attack must repeat whatever solver storage it was
// handed: both solvers' counters, the encoding's size, the DIP count and
// the key.
type poolRun struct {
	SolverStats, CheckStats   sat.Stats
	EncodeVars, EncodeClauses uint64
	Iterations                int
	Key                       []bool
}

// TestPooledAttacksDoNotDependOnHistory attacks a small circuit A, then a
// larger circuit B, then A again, so the second attack on A runs on
// solvers that B's attack grew and left behind. The sequence then runs on
// two goroutines at once, which share the pools. Every run of a circuit
// must repeat the first run's counters and key.
func TestPooledAttacksDoNotDependOnHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	type circuit struct {
		l    *Locked
		orig *netlist.CombView
	}
	mk := func(nIn, nGates, nKeys int) circuit {
		orig, locked, _ := lockedPair(rng, nIn, nGates, nKeys)
		l := mustLock(t, locked, func(i int, s netlist.SignalID) bool {
			return locked.N.SignalName(s)[0] == 'k'
		})
		return circuit{l, orig}
	}
	a, b := mk(6, 40, 5), mk(12, 800, 24)
	attack := func(c circuit) (poolRun, error) {
		res, err := RunCtx(context.Background(), c.l, &simOracle{c: sim.NewComb(c.orig)}, Options{})
		if err != nil {
			return poolRun{}, err
		}
		return poolRun{res.SolverStats, res.CheckStats, res.EncodeVars, res.EncodeClauses, res.Iterations, res.Key}, nil
	}
	sequence := func() ([3]poolRun, error) {
		var runs [3]poolRun
		for i, c := range [3]circuit{a, b, a} {
			r, err := attack(c)
			if err != nil {
				return runs, err
			}
			runs[i] = r
		}
		return runs, nil
	}
	check := func(who string, runs [3]poolRun, want [2]poolRun) {
		t.Helper()
		for i, w := range [3]poolRun{want[0], want[1], want[0]} {
			if !reflect.DeepEqual(runs[i], w) {
				t.Fatalf("%s, attack %d:\n got %+v\nwant %+v", who, i, runs[i], w)
			}
		}
	}

	first, err := sequence()
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Iterations == 0 || first[1].Iterations == 0 {
		t.Fatal("an attack closed before its first DIP: the check solver never ran")
	}
	want := [2]poolRun{first[0], first[1]}
	check("one goroutine", first, want)

	var wg sync.WaitGroup
	var runs [2][3]poolRun
	var errs [2]error
	for g := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[g], errs[g] = sequence()
		}()
	}
	wg.Wait()
	for g := range runs {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		check(fmt.Sprintf("goroutine %d of 2", g), runs[g], want)
	}
}

// TestPooledEncodersSurviveGC attacks once, collects garbage twice and
// attacks again: the second attack must run on the encoders, one per
// role, that the first one released. A pool that a collection empties
// (sync.Pool) hands the second attack new encoders, which regrow all the
// storage the first attack's held.
func TestPooledEncodersSurviveGC(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	orig, locked, _ := lockedPair(rng, 8, 120, 8)
	l := mustLock(t, locked, func(i int, s netlist.SignalID) bool {
		return locked.N.SignalName(s)[0] == 'k'
	})
	attack := func() {
		t.Helper()
		res, err := RunCtx(context.Background(), l, &simOracle{c: sim.NewComb(orig)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations == 0 {
			t.Fatal("the attack closed before its first DIP: the check solver never ran")
		}
	}
	// top takes the encoder each role hands out next and puts it back.
	top := func() [2]*encode.Encoder {
		m, c := acquire(&miterEncoders, nil), acquire(&checkEncoders, nil)
		release(&miterEncoders, m)
		release(&checkEncoders, c)
		return [2]*encode.Encoder{m, c}
	}
	attack()
	released := top()
	runtime.GC()
	runtime.GC()
	attack()
	if got := top(); got != released {
		t.Fatalf("after two collections the attack ran on encoders %p and %p, not on the %p and %p the attack before released",
			got[0], got[1], released[0], released[1])
	}
}

// TestRolePoolKeepsEveryReleasedEncoder holds more encoders of one role at
// once than the machine runs goroutines in parallel, as a daemon or a
// sweep with more workers than CPUs does, and releases them all: the next
// as many acquisitions must hand back those encoders and build none.
func TestRolePoolKeepsEveryReleasedEncoder(t *testing.T) {
	var pool rolePool
	held := make([]*encode.Encoder, runtime.GOMAXPROCS(0)+2)
	for i := range held {
		held[i] = acquire(&pool, nil)
	}
	for _, e := range held {
		release(&pool, e)
	}
	for i := range held {
		if e := acquire(&pool, nil); !slices.Contains(held, e) {
			t.Fatalf("acquisition %d of %d built a new encoder: the pool dropped one it was given", i+1, len(held))
		}
	}
}
