package sat

import (
	"math/rand"
	"slices"
	"testing"

	"dynunlock/internal/cnf"
)

// TestSlabMatchesSlices drives a slab and one Go slice per list through
// the same random pushes, truncations and swap-removes, the operations
// the watch lists see, and checks after each step that every list holds
// the same entries in the same order, that no two lists' rooms overlap,
// and that push reports true exactly when it moved the backing array.
func TestSlabMatchesSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s slab[int32]
	var ref [][]int32
	repacks := 0
	for step := 0; step < 20000; step++ {
		if len(ref) < 64 && rng.Intn(50) == 0 {
			s.spans = append(s.spans, span{})
			ref = append(ref, nil)
		}
		if len(ref) == 0 {
			continue
		}
		i := rng.Intn(len(ref))
		switch op := rng.Intn(10); {
		case op < 7:
			x := int32(step)
			before := s.data[:cap(s.data)]
			if s.push(i, x) != (cap(before) == 0 || &before[0] != &s.data[:1][0]) {
				t.Fatalf("step %d: push's report does not match whether the array moved", step)
			}
			if cap(before) > 0 && &before[0] != &s.data[:1][0] {
				repacks++
			}
			ref[i] = append(ref[i], x)
		case op < 9 && len(ref[i]) > 0:
			// Swap-remove a random entry, as detach does.
			k := rng.Intn(len(ref[i]))
			l := s.list(i)
			l[k] = l[len(l)-1]
			s.setLen(i, len(l)-1)
			ref[i][k] = ref[i][len(ref[i])-1]
			ref[i] = ref[i][:len(ref[i])-1]
		default:
			n := rng.Intn(len(ref[i]) + 1)
			s.setLen(i, n)
			ref[i] = ref[i][:n]
		}
		owner := make([]int, len(s.data))
		for j := range ref {
			if got := s.list(j); !slices.Equal(got, ref[j]) {
				t.Fatalf("step %d: list %d = %v, want %v", step, j, got, ref[j])
			}
			sp := s.spans[j]
			for k := sp.off; k < sp.off+roomOf(sp.nc&classMask); k++ {
				if owner[k] != 0 {
					t.Fatalf("step %d: lists %d and %d share entry %d", step, owner[k]-1, j, k)
				}
				owner[k] = j + 1
			}
		}
	}
	if repacks < 5 {
		t.Fatalf("only %d repacks: the test does not reach them", repacks)
	}
}

// TestSlabRepackKeepsSearch solves one planted instance twice: as is, and
// with both watch slabs made to repack on the next push onto a full list
// after every conflict, and every entry no list holds filled with a cref
// past the end of the arena. Both runs must make the same search. The
// second fails if propagate or propagateXor keeps scanning a stale view of
// its list after a repack, or if compact rewrites entries that are not a
// list's. The telemetry hook serves only as a point between conflicts; a
// real hook never touches the solver.
func TestSlabRepackKeepsSearch(t *testing.T) {
	build := func() (*Solver, []bool) {
		const n = 250
		rng := rand.New(rand.NewSource(7))
		hidden := make([]bool, n)
		for v := range hidden {
			hidden[v] = rng.Intn(2) == 0
		}
		s := New()
		randLit := func() cnf.Lit { return lit(rng.Intn(n), rng.Intn(2) == 0) }
		for i := 0; i < n*42/10; i++ {
			c := []cnf.Lit{randLit(), randLit(), randLit()}
			if c[0].Sign() == hidden[c[0].Var()] {
				c[0] = c[0].Not()
			}
			s.AddClause(c...)
		}
		for i := 0; i < n/6; i++ {
			x := []cnf.Lit{randLit(), randLit(), randLit(), randLit()}
			parity := false
			for _, l := range x {
				parity = parity != (hidden[l.Var()] != l.Sign())
			}
			s.AddXor(x, parity)
		}
		return s, hidden
	}
	// Solve, fix a fifth of the variables to the planted values, let
	// Simplify drop the clauses they satisfy and compact the arena, and
	// solve again; scramble runs just before the compaction.
	run := func(s *Solver, hidden []bool, scramble func()) {
		t.Helper()
		if s.Solve() != Sat {
			t.Fatal("planted instance reported UNSAT")
		}
		for v := 0; v < len(hidden)/5; v++ {
			s.AddClause(lit(v, !hidden[v]))
		}
		scramble()
		if !s.Simplify() || s.Solve() != Sat {
			t.Fatal("planted instance reported UNSAT")
		}
	}
	plain, hidden := build()
	run(plain, hidden, func() {})
	forced, _ := build()
	scramble := func() {
		forceRepack(&forced.watches, watcher{cr: crefXor - 1})
		forceRepack(&forced.xwatches, -1)
	}
	forced.SetHook(&Hook{Every: 1, OnSample: func(Stats, int) { scramble() }})
	run(forced, hidden, scramble)
	if forced.Stats != plain.Stats {
		t.Fatalf("forced repacks moved the search:\n got %+v\nwant %+v", forced.Stats, plain.Stats)
	}
	if !slices.Equal(forced.Model(), plain.Model()) {
		t.Fatal("forced repacks changed the model")
	}
	if forced.compactions == 0 {
		t.Fatal("the instance never compacted the arena")
	}
}

// forceRepack fills every entry of s that no list holds, the holes, each
// list's room past its length and the whole spare array, with poison,
// forgets the holes and trims the array's capacity to its length, so that
// the next push onto a full list repacks.
func forceRepack[T any](s *slab[T], poison T) {
	spare := s.spare[:cap(s.spare)]
	for k := range spare {
		spare[k] = poison
	}
	live := make([]bool, len(s.data))
	for _, sp := range s.spans {
		for k := sp.off; k < sp.off+sp.nc>>classBits; k++ {
			live[k] = true
		}
	}
	for k := range s.data {
		if !live[k] {
			s.data[k] = poison
		}
	}
	for c := range s.holes {
		s.holes[c] = s.holes[c][:0]
	}
	s.data = s.data[:len(s.data):len(s.data)]
}

// TestSlabRepackReusesSpare fills a slab's lists by random pushes and then
// repacks it again and again. The first repacks make the spare; from then
// on each repack copies the lists into the array the one before left and
// allocates nothing, and every list keeps its entries in order. The spare
// is poisoned before each repack, since it would otherwise hold the same
// lists at the same offsets from two repacks before.
func TestSlabRepackReusesSpare(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var s slab[int32]
	ref := make([][]int32, 40)
	s.spans = make([]span, len(ref))
	for step := 0; step < 3000; step++ {
		i := rng.Intn(len(ref))
		s.push(i, int32(step))
		ref[i] = append(ref[i], int32(step))
	}
	check := func(when string) {
		t.Helper()
		for j := range ref {
			if got := s.list(j); !slices.Equal(got, ref[j]) {
				t.Fatalf("%s: list %d = %v, want %v", when, j, got, ref[j])
			}
		}
	}
	s.repack(0)
	check("after the first repack")
	before := &s.data[:1][0]
	repack := func() {
		spare := s.spare[:cap(s.spare)]
		for k := range spare {
			spare[k] = -1
		}
		s.repack(0)
	}
	if allocs := testing.AllocsPerRun(10, repack); allocs != 0 {
		t.Fatalf("a repack with a spare of room allocated %v times", allocs)
	}
	check("after the repacks into the spare")
	if &s.data[:1][0] == before || &s.spare[:1][0] != before {
		t.Fatal("the repacks did not swap the array with its spare")
	}
}
