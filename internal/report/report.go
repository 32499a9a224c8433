// Package report renders experiment results as GitHub-flavoured Markdown
// pipe tables in the style of the paper's Tables I–III: aligned, so they
// read as plain text in a terminal and render as tables in Markdown.
package report

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table accumulates rows and renders them as one aligned pipe table.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// New creates a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// trimFloat prints v with two decimals from 1 up and with three
// significant digits below 1, so a 3.3 ms time reads 0.0033, not 0, and
// drops trailing zeros.
func trimFloat(v float64) string {
	decimals := 2
	if a := math.Abs(v); a > 0 && a < 1 {
		decimals = 2 - int(math.Floor(math.Log10(a)))
	}
	s := strconv.FormatFloat(v, 'f', decimals, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Render writes the table to w: the title line and a blank line (when the
// title is set), the header row, a |---| rule as wide as each column, then
// the rows. Every cell is padded to its column's width; a row shorter than
// the header gets empty cells, and a | inside a cell is escaped as \|.
func (t *Table) Render(w io.Writer) error {
	cells := make([][]string, 0, len(t.rows)+1)
	ncol := len(t.headers)
	for _, r := range append([][]string{t.headers}, t.rows...) {
		row := make([]string, len(r))
		for i, c := range r {
			row[i] = strings.ReplaceAll(c, "|", `\|`)
		}
		cells = append(cells, row)
		ncol = max(ncol, len(row))
	}
	width := make([]int, ncol)
	for _, r := range cells {
		for i, c := range r {
			width[i] = max(width[i], utf8.RuneCountInString(c))
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteString("\n\n")
	}
	writeRow := func(r []string) {
		sb.WriteByte('|')
		for i, wd := range width {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			sb.WriteByte(' ')
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", wd-utf8.RuneCountInString(c)))
			sb.WriteString(" |")
		}
		sb.WriteByte('\n')
	}
	writeRow(cells[0])
	sb.WriteByte('|')
	for _, wd := range width {
		sb.WriteString(strings.Repeat("-", wd+2))
		sb.WriteByte('|')
	}
	sb.WriteByte('\n')
	for _, r := range cells[1:] {
		writeRow(r)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// String renders to a string.
func (t *Table) String() string {
	var sb strings.Builder
	if err := t.Render(&sb); err != nil {
		return err.Error()
	}
	return sb.String()
}
