package sat

import (
	"math/rand"
	"reflect"
	"testing"

	"dynunlock/internal/cnf"
)

// legAnswer is one Solve call's observable outcome.
type legAnswer struct {
	status Status
	stats  Stats
	model  []bool
}

// legRecord is everything a resetLeg observes: each answer, the LBD of
// every learnt clause in the order they were learnt, and the number of
// arena compactions.
type legRecord struct {
	answers     []legAnswer
	lbds        []int32
	compactions int
}

// resetLeg runs p on s the way an attack drives a solver and records
// every answer: the first half, Simplify and a solve; a forced arena
// compaction; the rest and a solve under the assumptions; a second forced
// compaction, which fills the spare the first one left; then the same
// assumptions under a conflict budget of two more conflicts. A hook
// records each learnt clause's LBD, which the counters alone would show
// only through restarts and database reductions.
func resetLeg(s *Solver, p fuzzProblem) legRecord {
	var rec legRecord
	s.SetHook(&Hook{LearntEvery: 1, OnLearnt: func(lbd int32, _ int) { rec.lbds = append(rec.lbds, lbd) }})
	solve := func(assumptions []cnf.Lit) {
		a := legAnswer{status: s.Solve(assumptions...), stats: s.Stats}
		if a.status == Sat {
			a.model = append([]bool(nil), s.Model()...)
		}
		rec.answers = append(rec.answers, a)
	}
	add := func(cs []fuzzConstraint) {
		for _, c := range cs {
			if c.xor {
				s.AddXor(c.lits, c.rhs)
			} else {
				s.AddClause(c.lits...)
			}
		}
	}
	for i := 0; i < p.nVars; i++ {
		s.NewVar()
	}
	add(p.first)
	s.Simplify()
	solve(nil)
	s.compact()
	add(p.rest)
	solve(p.assumptions)
	s.compact()
	s.ConflictBudget = int64(s.Stats.Conflicts) + 2
	solve(p.assumptions)
	rec.compactions = s.compactions
	return rec
}

// checkResetSearch runs problem a on one solver, leaves it a hook, a
// conflict budget and a pending interrupt, Resets it and runs b on it.
// Every answer and LBD must match a new solver's run of b: Reset keeps
// capacity, never content.
func checkResetSearch(t *testing.T, a, b fuzzProblem) {
	t.Helper()
	s := New()
	resetLeg(s, a)
	s.ConflictBudget = 1
	s.interrupt.Store(true)
	s.Reset()
	if s.hook != nil || s.hasModel || s.NumVars() != 0 {
		t.Fatal("Reset left a hook, a model or variables")
	}
	got, want := resetLeg(s, b), resetLeg(New(), b)
	if got.compactions < 2 {
		t.Fatalf("the leg compacted the arena %d times, want at least 2", got.compactions)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("a Reset solver answered\n%+v\na new solver\n%+v", got, want)
	}
}

// plantedProblem is a satisfiable fuzzProblem over n variables, larger
// than the fuzz generator's: random 3-clauses and 4-variable XOR rows
// around a planted assignment, split in halves, with a few assumptions.
func plantedProblem(rng *rand.Rand, n int) fuzzProblem {
	hidden := make([]bool, n)
	for v := range hidden {
		hidden[v] = rng.Intn(2) == 0
	}
	randLit := func() cnf.Lit { return lit(rng.Intn(n), rng.Intn(2) == 0) }
	var all []fuzzConstraint
	for i := 0; i < n*42/10; i++ {
		c := fuzzConstraint{lits: []cnf.Lit{randLit(), randLit(), randLit()}}
		if c.lits[0].Sign() == hidden[c.lits[0].Var()] {
			c.lits[0] = c.lits[0].Not()
		}
		all = append(all, c)
	}
	for i := 0; i < n/6; i++ {
		c := fuzzConstraint{lits: []cnf.Lit{randLit(), randLit(), randLit(), randLit()}, xor: true}
		for _, l := range c.lits {
			c.rhs = c.rhs != (hidden[l.Var()] != l.Sign())
		}
		all = append(all, c)
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return fuzzProblem{
		nVars: n, first: all[:len(all)/2], rest: all[len(all)/2:],
		assumptions: []cnf.Lit{randLit(), randLit(), randLit()},
	}
}

// TestResetSolverSearchesLikeNew pairs random problems of the fuzz
// generator, and planted problems of different sizes in both orders, so
// that a Reset solver reuses arrays with more room and stale entries past
// their lengths. The fuzz problems learn few clauses; the planted pairs
// learn hundreds, which is what exposes a stale LBD stamp.
func TestResetSolverSearchesLikeNew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	random := func() fuzzProblem {
		data := make([]byte, 8+rng.Intn(80))
		rng.Read(data)
		return decodeFuzzProblem(data)
	}
	for i := 0; i < 300; i++ {
		checkResetSearch(t, random(), random())
	}
	for i := 0; i < 4; i++ {
		big, mid := plantedProblem(rng, 150+50*i), plantedProblem(rng, 100+25*i)
		checkResetSearch(t, big, random())
		checkResetSearch(t, big, mid)
		checkResetSearch(t, mid, big)
	}
}
