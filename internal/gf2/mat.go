package gf2

import (
	"fmt"
	"strings"
)

// Mat is a dense GF(2) matrix stored as a slice of row vectors.
type Mat struct {
	rows, cols int
	data       []Vec
}

// NewMat returns an all-zero rows×cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("gf2: negative matrix dimension")
	}
	m := &Mat{rows: rows, cols: cols, data: make([]Vec, rows)}
	for i := range m.data {
		m.data[i] = NewVec(cols)
	}
	return m
}

// Rows returns the number of rows.
func (m *Mat) Rows() int { return m.rows }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, b bool) { m.data[i].Set(j, b) }

// Row returns row i. The returned vector aliases the matrix storage.
func (m *Mat) Row(i int) Vec { return m.data[i] }

// AppendRow grows the matrix by one row (cloned).
func (m *Mat) AppendRow(v Vec) {
	if m.rows == 0 && m.cols == 0 && len(m.data) == 0 {
		m.cols = v.Len()
	}
	if v.Len() != m.cols {
		panic(fmt.Sprintf("gf2: row length %d, want %d", v.Len(), m.cols))
	}
	m.data = append(m.data, v.Clone())
	m.rows++
}

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := &Mat{rows: m.rows, cols: m.cols, data: make([]Vec, m.rows)}
	for i, r := range m.data {
		c.data[i] = r.Clone()
	}
	return c
}

// MulVec returns m·x over GF(2). x must have one entry per column.
func (m *Mat) MulVec(x Vec) Vec {
	if x.Len() != m.cols {
		panic(fmt.Sprintf("gf2: vector length %d, want %d", x.Len(), m.cols))
	}
	out := NewVec(m.rows)
	for i, r := range m.data {
		if r.Dot(x) {
			out.Set(i, true)
		}
	}
	return out
}

// VStack returns the matrix [m; b] (rows of m followed by rows of b).
func VStack(m, b *Mat) *Mat {
	if m.cols != b.cols && m.rows != 0 && b.rows != 0 {
		panic(fmt.Sprintf("gf2: vstack column mismatch %d vs %d", m.cols, b.cols))
	}
	cols := m.cols
	if m.rows == 0 {
		cols = b.cols
	}
	out := &Mat{rows: 0, cols: cols}
	for _, r := range m.data {
		out.AppendRow(r)
	}
	for _, r := range b.data {
		out.AppendRow(r)
	}
	return out
}

// String renders the matrix, one row per line.
func (m *Mat) String() string {
	var sb strings.Builder
	for i, r := range m.data {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(r.String())
	}
	return sb.String()
}
