package sat

import (
	"math/rand"
	"runtime"
	"testing"

	"dynunlock/internal/cnf"
)

func lit(v int, neg bool) cnf.Lit { return cnf.MkLit(v, neg) }

func TestTrivialSat(t *testing.T) {
	s := New()
	v := s.NewVar()
	if !s.AddClause(lit(v, false)) {
		t.Fatal("AddClause failed")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("status %v", st)
	}
	if !s.Value(v) {
		t.Fatal("model wrong")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(lit(v, false))
	if s.AddClause(lit(v, true)) {
		t.Fatal("expected top-level conflict")
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("status %v", st)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Fatal("empty clause must fail")
	}
	if s.Solve() != Unsat {
		t.Fatal("want UNSAT")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	v := s.NewVar()
	w := s.NewVar()
	if !s.AddClause(lit(v, false), lit(v, true)) {
		t.Fatal("tautology must be accepted")
	}
	s.AddClause(lit(w, false))
	if s.Solve() != Sat {
		t.Fatal("want SAT")
	}
}

func TestDuplicateLiterals(t *testing.T) {
	s := New()
	v := s.NewVar()
	w := s.NewVar()
	if !s.AddClause(lit(v, true), lit(v, true), lit(w, false)) {
		t.Fatal("add failed")
	}
	s.AddClause(lit(v, false))
	if s.Solve() != Sat {
		t.Fatal("want SAT")
	}
	if !s.Value(v) || !s.Value(w) {
		t.Fatal("model wrong")
	}
}

// XOR chain: x0 ^ x1 ^ ... ^ xn = 1 encoded clause-wise, with a unit fixing
// each xi except one; exercises long implication chains.
func TestXorChainPropagation(t *testing.T) {
	s := New()
	n := 50
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	// y_i = y_{i-1} XOR x_i with y_0 = x_0; y vars interleaved.
	prev := vars[0]
	for i := 1; i < n; i++ {
		y := s.NewVar()
		addXor(s, y, prev, vars[i])
		prev = y
	}
	s.AddClause(lit(prev, false)) // parity must be 1
	for i := 0; i < n-1; i++ {
		s.AddClause(lit(vars[i], i%2 == 0))
	}
	if s.Solve() != Sat {
		t.Fatal("want SAT")
	}
	parity := false
	for i := 0; i < n; i++ {
		if s.Value(vars[i]) {
			parity = !parity
		}
	}
	if !parity {
		t.Fatal("parity constraint violated")
	}
}

// addXor encodes z = a XOR b.
func addXor(s *Solver, z, a, b int) {
	s.AddClause(lit(z, true), lit(a, false), lit(b, false))
	s.AddClause(lit(z, true), lit(a, true), lit(b, true))
	s.AddClause(lit(z, false), lit(a, false), lit(b, true))
	s.AddClause(lit(z, false), lit(a, true), lit(b, false))
}

// Pigeonhole PHP(n+1, n) is UNSAT and requires real conflict analysis.
func TestPigeonholeUnsat(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6} {
		s := New()
		// p[i][j]: pigeon i in hole j.
		p := make([][]int, n+1)
		for i := range p {
			p[i] = make([]int, n)
			for j := range p[i] {
				p[i][j] = s.NewVar()
			}
		}
		for i := 0; i <= n; i++ {
			c := make([]cnf.Lit, n)
			for j := 0; j < n; j++ {
				c[j] = lit(p[i][j], false)
			}
			s.AddClause(c...)
		}
		for j := 0; j < n; j++ {
			for i1 := 0; i1 <= n; i1++ {
				for i2 := i1 + 1; i2 <= n; i2++ {
					s.AddClause(lit(p[i1][j], true), lit(p[i2][j], true))
				}
			}
		}
		if st := s.Solve(); st != Unsat {
			t.Fatalf("PHP(%d,%d) = %v, want UNSAT", n+1, n, st)
		}
	}
}

// Random 3-SAT instances checked against exhaustive enumeration.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		nVars := 3 + rng.Intn(10)
		nClauses := 2 + rng.Intn(5*nVars)
		var f cnf.Formula
		f.NumVars = nVars
		for i := 0; i < nClauses; i++ {
			var c []cnf.Lit
			for k := 0; k < 3; k++ {
				c = append(c, lit(rng.Intn(nVars), rng.Intn(2) == 0))
			}
			f.Add(c...)
		}
		want := false
		assign := make([]bool, nVars)
		for m := 0; m < 1<<uint(nVars); m++ {
			for v := 0; v < nVars; v++ {
				assign[v] = m>>uint(v)&1 == 1
			}
			if f.Eval(assign) {
				want = true
				break
			}
		}
		s := New()
		s.AddFormula(&f)
		got := s.Solve()
		if want && got != Sat {
			t.Fatalf("trial %d: want SAT, got %v", trial, got)
		}
		if !want && got != Unsat {
			t.Fatalf("trial %d: want UNSAT, got %v", trial, got)
		}
		if got == Sat {
			model := s.Model()
			if !f.Eval(model[:nVars]) {
				t.Fatalf("trial %d: model does not satisfy formula", trial)
			}
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	// a -> b, b -> c
	s.AddClause(lit(a, true), lit(b, false))
	s.AddClause(lit(b, true), lit(c, false))
	if s.Solve(lit(a, false)) != Sat {
		t.Fatal("want SAT under a")
	}
	if !s.Value(b) || !s.Value(c) {
		t.Fatal("implications not propagated")
	}
	// Now force ¬c and assume a: UNSAT under assumptions, but solver stays usable.
	s.AddClause(lit(c, true))
	if s.Solve(lit(a, false)) != Unsat {
		t.Fatal("want UNSAT under a")
	}
	if s.Solve() != Sat {
		t.Fatal("want SAT without assumptions")
	}
	if s.Value(a) {
		t.Fatal("a must be false")
	}
}

func TestConflictingAssumptions(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.NewVar()
	if s.Solve(lit(a, false), lit(a, true)) != Unsat {
		t.Fatal("contradictory assumptions must be UNSAT")
	}
	if s.Solve() != Sat {
		t.Fatal("solver must remain usable")
	}
}

func TestIncrementalBlocking(t *testing.T) {
	// Enumerate all 8 models of 3 free variables via blocking clauses.
	s := New()
	vars := []int{s.NewVar(), s.NewVar(), s.NewVar()}
	count := 0
	for s.Solve() == Sat {
		count++
		if count > 8 {
			t.Fatal("too many models")
		}
		block := make([]cnf.Lit, len(vars))
		for i, v := range vars {
			block[i] = lit(v, s.Value(v))
		}
		s.AddClause(block...)
	}
	if count != 8 {
		t.Fatalf("enumerated %d models, want 8", count)
	}
}

func TestConflictBudget(t *testing.T) {
	// A hard UNSAT instance with a tiny budget must return Unknown.
	s := New()
	n := 8
	p := make([][]int, n+1)
	for i := range p {
		p[i] = make([]int, n)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i <= n; i++ {
		c := make([]cnf.Lit, n)
		for j := 0; j < n; j++ {
			c[j] = lit(p[i][j], false)
		}
		s.AddClause(c...)
	}
	for j := 0; j < n; j++ {
		for i1 := 0; i1 <= n; i1++ {
			for i2 := i1 + 1; i2 <= n; i2++ {
				s.AddClause(lit(p[i1][j], true), lit(p[i2][j], true))
			}
		}
	}
	s.ConflictBudget = 10
	if st := s.Solve(); st != Unknown {
		t.Fatalf("want Unknown under budget, got %v", st)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(lit(a, false), lit(b, false))
	s.AddClause(lit(a, true), lit(b, false))
	s.Solve()
	if s.Stats.Propagations == 0 && s.Stats.Decisions == 0 {
		t.Fatal("stats not recorded")
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Fatal("Status.String wrong")
	}
}

func TestModelWithoutSolvePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New().Model()
}

// Larger randomized stress: satisfiable instances built from a hidden
// solution must always come back SAT with a genuine model.
func TestPlantedSolutions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nVars := 50 + rng.Intn(100)
		hidden := make([]bool, nVars)
		for i := range hidden {
			hidden[i] = rng.Intn(2) == 0
		}
		var f cnf.Formula
		f.NumVars = nVars
		for i := 0; i < nVars*4; i++ {
			var c []cnf.Lit
			ok := false
			for k := 0; k < 3; k++ {
				v := rng.Intn(nVars)
				neg := rng.Intn(2) == 0
				if hidden[v] != neg {
					ok = true
				}
				c = append(c, lit(v, neg))
			}
			if !ok {
				// Flip one literal to satisfy the hidden assignment.
				v := c[0].Var()
				c[0] = lit(v, !hidden[v])
			}
			f.Add(c...)
		}
		s := New()
		s.AddFormula(&f)
		if s.Solve() != Sat {
			t.Fatalf("trial %d: planted instance reported UNSAT", trial)
		}
		if !f.Eval(s.Model()[:nVars]) {
			t.Fatalf("trial %d: bad model", trial)
		}
	}
}

func BenchmarkSolveRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	var f cnf.Formula
	nVars := 120
	f.NumVars = nVars
	for i := 0; i < int(4.0*float64(nVars)); i++ {
		var c []cnf.Lit
		for k := 0; k < 3; k++ {
			c = append(c, lit(rng.Intn(nVars), rng.Intn(2) == 0))
		}
		f.Add(c...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		s.AddFormula(&f)
		s.Solve()
	}
}

// TestNewVarGrowsArraysTogether pins the growth of the per-variable
// arrays: NewVar moves all of them, the decision heap's included, to
// storage for twice the variables whenever they are full, so between two
// moves every append stays in place. One-at-a-time growth, the reference
// this replaced, leaves each array at its own append-chosen capacity.
func TestNewVarGrowsArraysTogether(t *testing.T) {
	s := New()
	moves := 0
	var level *int32
	for v := 0; v < 5000; v++ {
		if got := s.NewVar(); got != v {
			t.Fatalf("NewVar = %d, want %d", got, v)
		}
		if v%7 == 0 && v > 0 {
			s.AddClause(cnf.MkLit(v, false), cnf.MkLit(v-1, true))
		}
		n := cap(s.level)
		if n < 16 || n&(n-1) != 0 || n < v+1 {
			t.Fatalf("after %d vars: capacity %d is not the power of two at or above it", v+1, n)
		}
		caps := map[string][2]int{
			"vals": {cap(s.vals), 2 * n}, "polarity": {cap(s.polarity), n}, "activity": {cap(s.activity), n},
			"reason": {cap(s.reason), n}, "reasonX": {cap(s.reasonX), n}, "seen": {cap(s.seen), n},
			"watches": {cap(s.watches.spans), 2 * n}, "xwatches": {cap(s.xwatches.spans), n}, "trail": {cap(s.trail), n},
			"heap": {cap(s.order.heap), n}, "indices": {cap(s.order.indices), n}, "act": {cap(s.order.act), n},
		}
		for name, c := range caps {
			if c[0] != c[1] {
				t.Fatalf("after %d vars: cap(%s) = %d, want %d", v+1, name, c[0], c[1])
			}
		}
		if len(s.order.act) != v+1 || len(s.vals) != 2*(v+1) || len(s.watches.spans) != 2*(v+1) {
			t.Fatalf("after %d vars: lengths act %d vals %d watches %d", v+1, len(s.order.act), len(s.vals), len(s.watches.spans))
		}
		if p := &s.level[0]; p != level {
			level = p
			moves++
		}
	}
	if moves != 10 { // 16, 32, …, 8192
		t.Fatalf("the arrays moved %d times for 5000 variables, want 10", moves)
	}
	if s.Solve() != Sat {
		t.Fatal("want SAT")
	}
}

// TestSolverBytesPerVariable pins what a variable costs in allocation:
// every per-variable array, the watch lists' spans and the trail grow by
// doubling, and a watch list costs a pointer-free span instead of a slice
// header, so 2^17 variables allocate at most 160 bytes each. Slice
// headers for the watch lists cost 208 bytes a variable.
func TestSolverBytesPerVariable(t *testing.T) {
	const n = 1 << 17
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := New()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per > 160 {
		t.Fatalf("%d variables allocated %.1f bytes each, want at most 160", n, per)
	} else {
		t.Logf("%.1f bytes per variable", per)
	}
}
