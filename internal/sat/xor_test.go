package sat

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"dynunlock/internal/cnf"
)

// tseitinXor expands "XOR of lits = rhs" into direct parity clauses — one
// clause forbidding each literal-value assignment with the wrong parity —
// the reference semantics the native layer must match.
func tseitinXor(s *Solver, lits []cnf.Lit, rhs bool) bool {
	k := len(lits)
	if k == 0 {
		if rhs {
			return s.AddClause()
		}
		return true
	}
	ok := true
	for mask := 0; mask < 1<<k; mask++ {
		sum := false
		for i := range lits {
			if mask>>i&1 == 1 {
				sum = !sum
			}
		}
		if sum == rhs {
			continue // this assignment of literal values satisfies the constraint
		}
		// Forbid the violating assignment: include, per literal, the form
		// that is false when the literal takes the mask value.
		clause := make([]cnf.Lit, k)
		for i, l := range lits {
			if mask>>i&1 == 1 {
				clause[i] = l.Not()
			} else {
				clause[i] = l
			}
		}
		if !s.AddClause(clause...) {
			ok = false
		}
	}
	return ok
}

type xorSystem struct {
	nVars   int
	xors    [][]cnf.Lit
	rhs     []bool
	clauses [][]cnf.Lit
}

func randomXorSystem(rng *rand.Rand) *xorSystem {
	sys := &xorSystem{nVars: 3 + rng.Intn(10)}
	nx := 1 + rng.Intn(2*sys.nVars)
	for i := 0; i < nx; i++ {
		k := 1 + rng.Intn(4)
		row := make([]cnf.Lit, k)
		for j := range row {
			row[j] = cnf.MkLit(rng.Intn(sys.nVars), rng.Intn(2) == 1)
		}
		sys.xors = append(sys.xors, row)
		sys.rhs = append(sys.rhs, rng.Intn(2) == 1)
	}
	// A few ordinary clauses so the CDCL and GF(2) layers interact.
	nc := rng.Intn(sys.nVars)
	for i := 0; i < nc; i++ {
		k := 1 + rng.Intn(3)
		c := make([]cnf.Lit, k)
		for j := range c {
			c[j] = cnf.MkLit(rng.Intn(sys.nVars), rng.Intn(2) == 1)
		}
		sys.clauses = append(sys.clauses, c)
	}
	return sys
}

func (sys *xorSystem) check(t *testing.T, model []bool) {
	t.Helper()
	for i, row := range sys.xors {
		sum := false
		for _, l := range row {
			if model[l.Var()] != l.Sign() {
				sum = !sum
			}
		}
		if sum != sys.rhs[i] {
			t.Fatalf("model violates xor row %d", i)
		}
	}
	for i, c := range sys.clauses {
		sat := false
		for _, l := range c {
			if model[l.Var()] != l.Sign() {
				sat = true
			}
		}
		if !sat {
			t.Fatalf("model violates clause %d", i)
		}
	}
}

// TestAddXorMatchesTseitin is the differential fuzz pin: on random mixed
// CNF-XOR systems the native XOR layer and the clause-expanded
// equivalent must agree on SAT/UNSAT, and every SAT model must satisfy the
// original constraints.
func TestAddXorMatchesTseitin(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 500; trial++ {
		sys := randomXorSystem(rng)
		native, ref := New(), New()
		nativeOK, refOK := true, true
		for v := 0; v < sys.nVars; v++ {
			native.NewVar()
			ref.NewVar()
		}
		for _, c := range sys.clauses {
			if !native.AddClause(c...) {
				nativeOK = false
			}
			if !ref.AddClause(c...) {
				refOK = false
			}
		}
		for i, row := range sys.xors {
			if !native.AddXor(row, sys.rhs[i]) {
				nativeOK = false
			}
			if !tseitinXor(ref, row, sys.rhs[i]) {
				refOK = false
			}
		}
		stNative, stRef := Unsat, Unsat
		if nativeOK {
			stNative = native.Solve()
		}
		if refOK {
			stRef = ref.Solve()
		}
		if stNative != stRef {
			t.Fatalf("trial %d: native %v, tseitin %v", trial, stNative, stRef)
		}
		if stNative == Sat {
			sys.check(t, native.Model())
			sys.check(t, ref.Model())
		}
	}
}

// TestAddXorIncremental interleaves XOR additions with Solve calls the way
// the attack loop does: constraints accumulate, and the status sequence
// must match the clause-expanded reference at every step.
func TestAddXorIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 100; trial++ {
		sys := randomXorSystem(rng)
		native, ref := New(), New()
		for v := 0; v < sys.nVars; v++ {
			native.NewVar()
			ref.NewVar()
		}
		nativeOK, refOK := true, true
		for i, row := range sys.xors {
			if !native.AddXor(row, sys.rhs[i]) {
				nativeOK = false
			}
			if !tseitinXor(ref, row, sys.rhs[i]) {
				refOK = false
			}
			stNative, stRef := Unsat, Unsat
			if nativeOK {
				stNative = native.Solve()
			}
			if refOK {
				stRef = ref.Solve()
			}
			if stNative != stRef {
				t.Fatalf("trial %d step %d: native %v, tseitin %v", trial, i, stNative, stRef)
			}
		}
	}
}

// TestAddXorUnderAssumptions checks the GF(2) layer against assumption
// literals: x0 ⊕ x1 = 1 under assumption x0 forces x1 false.
func TestAddXorUnderAssumptions(t *testing.T) {
	s := New()
	v0, v1 := s.NewVar(), s.NewVar()
	if !s.AddXor([]cnf.Lit{lit(v0, false), lit(v1, false)}, true) {
		t.Fatal("AddXor failed")
	}
	if st := s.Solve(lit(v0, false)); st != Sat {
		t.Fatalf("status %v", st)
	}
	if !s.Value(v0) || s.Value(v1) {
		t.Fatalf("model v0=%v v1=%v, want true,false", s.Value(v0), s.Value(v1))
	}
	if st := s.Solve(lit(v0, false), lit(v1, false)); st != Unsat {
		t.Fatalf("status %v, want UNSAT", st)
	}
}

// TestAddXorDependentRows checks rows that earlier rows already decide.
// AddXor stores them as given, with no elimination: a dependent row with
// the system's parity changes no answer under any assumptions, and one
// with the other parity makes Solve return UNSAT.
func TestAddXorDependentRows(t *testing.T) {
	build := func(extra ...bool) *Solver {
		s := New()
		a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
		s.AddXor([]cnf.Lit{lit(a, false), lit(b, false)}, true)
		s.AddXor([]cnf.Lit{lit(b, false), lit(c, false)}, true)
		for _, rhs := range extra {
			if !s.AddXor([]cnf.Lit{lit(a, false), lit(c, false)}, rhs) {
				t.Fatalf("a⊕c = %v rejected at insertion", rhs)
			}
		}
		return s
	}
	// a⊕c = 0 is the sum of the first two rows: dependent, consistent.
	plain, dep := build(), build(false)
	for mask := 0; mask < 1<<6; mask++ {
		var assume []cnf.Lit
		for v := 0; v < 3; v++ {
			if mask>>(2*v)&1 == 1 {
				assume = append(assume, lit(v, mask>>(2*v+1)&1 == 1))
			}
		}
		want, got := plain.Solve(assume...), dep.Solve(assume...)
		if got != want {
			t.Fatalf("assumptions %v: %v with the dependent row, %v without", assume, got, want)
		}
		if got == Sat {
			m := dep.Model()
			if m[0] == m[1] || m[1] == m[2] || m[0] != m[2] {
				t.Fatalf("assumptions %v: model %v violates the rows", assume, m)
			}
		}
	}
	// a⊕c = 1 contradicts the system.
	s := build(true)
	for i := 0; i < 2; i++ {
		if st := s.Solve(); st != Unsat {
			t.Fatalf("solve %d: status %v, want UNSAT", i, st)
		}
	}
}

// TestXorStatsCount checks that XOR propagation work is visible in Stats.
func TestXorStatsCount(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddXor([]cnf.Lit{lit(a, false), lit(b, false)}, true)
	s.AddClause(lit(a, false))
	if st := s.Solve(); st != Sat {
		t.Fatalf("status %v", st)
	}
	if s.Stats.XorPropagations == 0 {
		t.Fatal("expected XorPropagations > 0")
	}
	if s.Value(b) {
		t.Fatal("b should be forced false")
	}
}

// TestWriteDimacsXor pins the cryptominisat "x ..." emission and that the
// dump round-trips through cnf.ParseDimacs with the same satisfiability.
func TestWriteDimacsXor(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddXor([]cnf.Lit{lit(a, false), lit(b, false), lit(c, false)}, false)
	s.AddClause(lit(a, false), lit(b, false))
	var buf bytes.Buffer
	if err := s.WriteDimacs(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	if !strings.Contains(dump, "x ") {
		t.Fatalf("dump has no xor line:\n%s", dump)
	}
	f, err := cnf.ParseDimacs(strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Xors) != 1 {
		t.Fatalf("parsed %d xor clauses, want 1", len(f.Xors))
	}
	s2 := New()
	if !s2.AddFormula(f) {
		t.Fatal("AddFormula failed")
	}
	if st := s2.Solve(); st != Sat {
		t.Fatalf("round-trip status %v", st)
	}
	if !f.Eval(s2.Model()[:f.NumVars]) {
		t.Fatal("round-trip model does not satisfy parsed formula")
	}
}
