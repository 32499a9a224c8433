package report

import (
	"fmt"
	"sort"
	"strings"

	"dynunlock/internal/anatomy"
)

// StageTable renders a wall-time split (anatomy.StageSplit) as the one
// stage table of `runs explain` and cmd/dynunlock's post-run summary: one
// row per stage with its seconds, share of wall time and calls, the encode
// sizes in their own Vars/Clauses columns, the remaining counters as
// "k=v" pairs, and a total row. A stage's sub-rows follow it, indented
// by two spaces; their time is inside the stage's, so the top-level rows
// alone sum to the total.
func StageTable(title string, stages []anatomy.Stage) *Table {
	tb := New(title, "Stage", "Seconds", "Share", "Calls", "Vars", "Clauses", "Counters")
	row := func(name string, s anatomy.Stage) {
		vars, varsKey := encodeCell(s.Counters, "vars", "encode_vars")
		clauses, clausesKey := encodeCell(s.Counters, "clauses", "encode_clauses")
		tb.AddRow(name, fmt.Sprintf("%.4f", s.Seconds), fmt.Sprintf("%.1f%%", s.Share*100), s.Calls,
			vars, clauses, counterString(s.Counters, varsKey, clausesKey))
	}
	total := 0.0
	for _, s := range stages {
		total += s.Seconds
		row(s.Name, s)
		for _, sub := range s.Sub {
			row("  "+sub.Name, sub)
		}
	}
	tb.AddRow("total", fmt.Sprintf("%.4f", total), "100.0%")
	return tb
}

// encodeCell picks the encode-size cell of a stage: the initial encoder
// emits "vars"/"clauses", the DIP loop accumulates the per-DIP growth as
// "encode_vars"/"encode_clauses". It returns the cell and the key it used,
// so the generic counter string does not repeat it; stages without either
// key render "-".
func encodeCell(c map[string]uint64, keys ...string) (string, string) {
	for _, k := range keys {
		if v, ok := c[k]; ok {
			return fmt.Sprintf("%d", v), k
		}
	}
	return "-", ""
}

// counterString renders counters deterministically as "k=v k=v" in key
// order, leaving out the two keys the encode cells used; no counters
// render as "-" so columns stay aligned.
func counterString(c map[string]uint64, skipA, skipB string) string {
	keys := make([]string, 0, len(c))
	for k := range c {
		if k != skipA && k != skipB {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return "-"
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, c[k])
	}
	return strings.Join(parts, " ")
}
