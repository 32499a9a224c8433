// Package cnf defines propositional literals, clauses, and CNF formulas,
// with DIMACS import. It is the interchange layer between the
// circuit encoder and the SAT solver.
package cnf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Lit is a literal in MiniSat encoding: variable v (0-based) appears
// positively as v<<1 and negatively as v<<1|1.
type Lit int32

// MkLit builds a literal for variable v with the given polarity
// (neg=false → positive).
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the 0-based variable index of l.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether l is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// Not returns the complement of l.
func (l Lit) Not() Lit { return l ^ 1 }

// Dimacs returns the 1-based signed DIMACS integer for l.
func (l Lit) Dimacs() int {
	d := l.Var() + 1
	if l.Sign() {
		return -d
	}
	return d
}

// FromDimacs converts a signed DIMACS integer (non-zero) to a Lit.
func FromDimacs(d int) Lit {
	if d == 0 {
		panic("cnf: DIMACS literal 0")
	}
	if d < 0 {
		return MkLit(-d-1, true)
	}
	return MkLit(d-1, false)
}

// String renders the literal in DIMACS form.
func (l Lit) String() string { return strconv.Itoa(l.Dimacs()) }

// Clause is a disjunction of literals.
type Clause []Lit

// XorClause is a parity constraint: the XOR of the literal values must be
// true. Negating a literal flips the constraint's parity, matching the
// cryptominisat "x ..." DIMACS extension — `x 1 2 0` means x1 ⊕ x2 = 1 and
// `x -1 2 0` means x1 ⊕ x2 = 0.
type XorClause []Lit

// Formula is a CNF-XOR formula: a conjunction of clauses and parity
// constraints over NumVars variables.
type Formula struct {
	NumVars int
	Clauses []Clause
	Xors    []XorClause
}

// Add appends a clause (copying the literals) and grows NumVars as needed.
func (f *Formula) Add(lits ...Lit) {
	c := make(Clause, len(lits))
	copy(c, lits)
	for _, l := range lits {
		if l.Var() >= f.NumVars {
			f.NumVars = l.Var() + 1
		}
	}
	f.Clauses = append(f.Clauses, c)
}

// AddXor appends a parity constraint (copying the literals) and grows
// NumVars as needed.
func (f *Formula) AddXor(lits ...Lit) {
	x := make(XorClause, len(lits))
	copy(x, lits)
	for _, l := range lits {
		if l.Var() >= f.NumVars {
			f.NumVars = l.Var() + 1
		}
	}
	f.Xors = append(f.Xors, x)
}

// Eval reports whether assignment (indexed by variable) satisfies f.
func (f *Formula) Eval(assign []bool) bool {
	for _, c := range f.Clauses {
		sat := false
		for _, l := range c {
			if assign[l.Var()] != l.Sign() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	for _, x := range f.Xors {
		parity := false
		for _, l := range x {
			if assign[l.Var()] != l.Sign() {
				parity = !parity
			}
		}
		if !parity {
			return false
		}
	}
	return true
}

// maxDimacsVars bounds the variables ParseDimacs accepts, both as the
// declared count and as any literal's |value|: 2^30 variables keep every
// literal inside the int32 Lit encoding.
const maxDimacsVars = 1 << 30

// ParseDimacs reads a DIMACS CNF file. Comment lines (c …) and the problem
// line are handled; %-terminated files (some SATLIB archives) are accepted.
// Lines starting with "x" carry cryptominisat-style XOR clauses ("x 1 2 0",
// with "x1 2 0" also tolerated) and populate Formula.Xors. A declared
// variable count or a literal beyond 2^30 is an error naming its
// line.
func ParseDimacs(r io.Reader) (*Formula, error) {
	f := &Formula{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	declaredVars := -1
	var cur Clause
	inXor := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "%") {
			break
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("dimacs:%d: bad problem line %q", lineNo, line)
			}
			// The clause count is checked for syntax only: many files
			// in the wild miscount.
			var err1, err2 error
			declaredVars, err1 = strconv.Atoi(fields[2])
			_, err2 = strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("dimacs:%d: bad problem line %q", lineNo, line)
			}
			if declaredVars > maxDimacsVars {
				return nil, fmt.Errorf("dimacs:%d: %d variables declared, more than %d", lineNo, declaredVars, maxDimacsVars)
			}
			continue
		}
		if strings.HasPrefix(line, "x") {
			if len(cur) > 0 {
				return nil, fmt.Errorf("dimacs:%d: xor line inside an open clause", lineNo)
			}
			inXor = true
			line = strings.TrimSpace(line[1:])
			if line == "" {
				continue
			}
		}
		for _, tok := range strings.Fields(line) {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("dimacs:%d: bad literal %q", lineNo, tok)
			}
			if v > maxDimacsVars || v < -maxDimacsVars {
				return nil, fmt.Errorf("dimacs:%d: literal %d beyond variable %d", lineNo, v, maxDimacsVars)
			}
			if v == 0 {
				if inXor {
					f.AddXor(cur...)
					inXor = false
				} else {
					f.Add(cur...)
				}
				cur = cur[:0]
				continue
			}
			cur = append(cur, FromDimacs(v))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dimacs: read: %w", err)
	}
	if len(cur) > 0 {
		if inXor {
			f.AddXor(cur...)
		} else {
			f.Add(cur...)
		}
	}
	if declaredVars > f.NumVars {
		f.NumVars = declaredVars
	}
	return f, nil
}
