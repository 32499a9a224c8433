package report

import (
	"strings"
	"testing"
	"time"

	"dynunlock/internal/anatomy"
	"dynunlock/internal/trace"
)

// cells splits one pipe-table line into its trimmed cells.
func cells(line string) []string {
	parts := strings.Split(strings.TrimSuffix(strings.TrimPrefix(line, "| "), " |"), " | ")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	return parts
}

func TestTableRender(t *testing.T) {
	tb := New("Table II", "Benchmark", "# Key bits", "# Seed candidates", "Time (s)")
	tb.AddRow("s5378", 128, 16, 41.0)
	tb.AddRow("s13207", 128, 128, 26.5)
	tb.AddRow("a|b")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 7 || lines[0] != "Table II" || lines[1] != "" {
		t.Fatalf("want title, blank line, header, rule and 3 rows, got %d lines:\n%s", len(lines), out)
	}
	if got := cells(lines[2]); strings.Join(got, ",") != "Benchmark,# Key bits,# Seed candidates,Time (s)" {
		t.Fatalf("header cells %q", got)
	}
	if lines[3] != "|-----------|------------|-------------------|----------|" {
		t.Fatalf("rule not padded to the column widths: %q", lines[3])
	}
	// Floats lose trailing zeros; the rest keep %v.
	if got := cells(lines[4]); strings.Join(got, ",") != "s5378,128,16,41" {
		t.Fatalf("row cells %q", got)
	}
	if got := cells(lines[5]); got[3] != "26.5" {
		t.Fatalf("float cell %q", got[3])
	}
	// A | in a cell is escaped, and a short row gets empty cells.
	if got := cells(lines[6]); len(got) != 4 || got[0] != `a\|b` || got[3] != "" {
		t.Fatalf("escaped short row %q", lines[6])
	}
	// Every line is as wide as the rule: the columns line up.
	for _, l := range lines[2:] {
		if len(l) != len(lines[3]) {
			t.Fatalf("line %q is %d wide, rule %d\n%s", l, len(l), len(lines[3]), out)
		}
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := New("", "A", "B")
	tb.AddRow(1, 2)
	if out := tb.String(); out != "| A | B |\n|---|---|\n| 1 | 2 |\n" {
		t.Fatalf("untitled table:\n%s", out)
	}
}

// stageRows renders spans through the one aggregation (anatomy.StageSplit)
// and the one renderer, returning the table's data rows by stage name.
func stageRows(t *testing.T, spans []trace.SpanRecord, total float64) (string, map[string][]string) {
	t.Helper()
	out := StageTable("Stages", anatomy.StageSplit(spans, total)).String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	rows := map[string][]string{}
	for _, l := range lines[4:] { // after title, blank line, header and rule
		c := cells(l)
		rows[strings.TrimSpace(c[0])] = c
	}
	return out, rows
}

func TestStageTableAggregates(t *testing.T) {
	spans := []trace.SpanRecord{
		{Name: "encode", Duration: 2 * time.Millisecond, Counters: map[string]uint64{"clauses": 100}},
		{Name: "dip_loop", Duration: 5 * time.Millisecond, Counters: map[string]uint64{"dips": 3, "conflicts": 40}},
		{Name: "encode", Duration: 3 * time.Millisecond, Counters: map[string]uint64{"clauses": 50}},
		{Name: "verify", Duration: time.Millisecond, Counters: nil},
	}
	out, rows := stageRows(t, spans, 0.012)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Fig. 3 order, then the residual and the total.
	for i, name := range []string{"encode", "dip_loop", "verify", "other", "total"} {
		if cells(lines[4+i])[0] != name {
			t.Fatalf("row %d is not %s:\n%s", i, name, out)
		}
	}
	// Repeated spans sum their calls, seconds and counters; the clause
	// count lands in the Clauses column, not the generic counter string.
	if c := rows["encode"]; c[1] != "0.0050" || c[3] != "2" || c[5] != "150" || c[6] != "-" {
		t.Fatalf("encode row not aggregated into 0.005s over 2 calls with 150 clauses:\n%s", out)
	}
	if c := rows["dip_loop"]; c[6] != "conflicts=40 dips=3" {
		t.Fatalf("counters not sorted by key:\n%s", out)
	}
	if c := rows["verify"]; c[6] != "-" {
		t.Fatalf("empty counters not dashed:\n%s", out)
	}
	// The un-spanned 1ms is the residual; the rows sum to the wall time.
	if c := rows["other"]; c[1] != "0.0010" || c[3] != "0" {
		t.Fatalf("other row is not the 1ms residual:\n%s", out)
	}
	if c := rows["total"]; c[1] != "0.0120" || c[2] != "100.0%" {
		t.Fatalf("total row does not sum to the wall time:\n%s", out)
	}
}

func TestStageTableFoldsUnknownIntoOther(t *testing.T) {
	spans := []trace.SpanRecord{
		{Name: "warmup", Duration: time.Millisecond, Counters: map[string]uint64{"items": 2}},
		{Name: "encode", Duration: 2 * time.Millisecond},
		{Name: "custom_pass", Duration: 3 * time.Millisecond, Counters: map[string]uint64{"items": 5}},
		{Name: "verify", Duration: time.Millisecond},
	}
	out, rows := stageRows(t, spans, 0.007)
	if len(rows) != 4 || rows["encode"] == nil || rows["verify"] == nil {
		t.Fatalf("want rows encode, verify, other, total:\n%s", out)
	}
	// Unknown names merge into the one "other" row instead of being listed
	// (or lost) individually: 2 calls, 4ms, items=7.
	if strings.Contains(out, "warmup") || strings.Contains(out, "custom_pass") {
		t.Fatalf("unknown span names leaked as rows:\n%s", out)
	}
	if c := rows["other"]; c[1] != "0.0040" || c[3] != "2" || c[6] != "items=7" {
		t.Fatalf("other row not aggregated:\n%s", out)
	}
}
