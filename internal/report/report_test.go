package report

import (
	"strings"
	"testing"
	"time"

	"dynunlock/internal/anatomy"
	"dynunlock/internal/trace"
)

func TestTableRender(t *testing.T) {
	tb := New("Table II", "Benchmark", "# Key bits", "# Seed candidates", "Time (s)")
	tb.AddRow("s5378", 128, 16, 41.0)
	tb.AddRow("s13207", 128, 128, 26.5)
	out := tb.String()
	if !strings.Contains(out, "Table II") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[3], "s5378") || !strings.Contains(lines[3], "41") {
		t.Fatalf("row formatting: %q", lines[3])
	}
	if strings.Contains(lines[3], "41.00") {
		t.Fatal("trailing zeros not trimmed")
	}
	if !strings.Contains(lines[4], "26.5") {
		t.Fatalf("float kept: %q", lines[4])
	}
	// Columns aligned: the header column start of col 2 equals row col 2.
	hIdx := strings.Index(lines[1], "# Key bits")
	rIdx := strings.Index(lines[3], "128")
	if hIdx != rIdx {
		t.Fatalf("column misaligned: header at %d, row at %d\n%s", hIdx, rIdx, out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := New("", "A", "B")
	tb.AddRow(1, 2)
	if strings.HasPrefix(tb.String(), "\n") {
		t.Fatal("stray blank title line")
	}
}

// stageRows renders spans through the one aggregation (anatomy.StageSplit)
// and the one renderer, returning the table's data rows by stage name.
func stageRows(t *testing.T, spans []trace.SpanRecord, total float64) (string, map[string]string) {
	t.Helper()
	out := StageTable("Stages", anatomy.StageSplit(spans, total)).String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	rows := map[string]string{}
	for _, l := range lines[3:] { // after title + header + rule
		rows[strings.Fields(l)[0]] = l
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
		if !strings.HasPrefix(lines[3+i], name) {
			t.Fatalf("row %d is not %s:\n%s", i, name, out)
		}
	}
	// Repeated spans sum their calls, seconds and counters; the clause
	// count lands in the Clauses column, not the generic counter string.
	if f := strings.Fields(rows["encode"]); f[1] != "0.0050" || f[3] != "2" || f[5] != "150" || strings.Contains(rows["encode"], "clauses=") {
		t.Fatalf("encode row not aggregated into 0.005s over 2 calls with 150 clauses:\n%s", out)
	}
	if !strings.HasSuffix(rows["dip_loop"], "conflicts=40 dips=3") {
		t.Fatalf("counters not sorted by key:\n%s", out)
	}
	if f := strings.Fields(rows["verify"]); f[len(f)-1] != "-" {
		t.Fatalf("empty counters not dashed:\n%s", out)
	}
	// The un-spanned 1ms is the residual; the rows sum to the wall time.
	if f := strings.Fields(rows["other"]); f[1] != "0.0010" || f[3] != "0" {
		t.Fatalf("other row is not the 1ms residual:\n%s", out)
	}
	if f := strings.Fields(rows["total"]); f[1] != "0.0120" || f[2] != "100.0%" {
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
	if len(rows) != 4 || rows["encode"] == "" || rows["verify"] == "" {
		t.Fatalf("want rows encode, verify, other, total:\n%s", out)
	}
	// Unknown names merge into the one "other" row instead of being listed
	// (or lost) individually: 2 calls, 4ms, items=7.
	if strings.Contains(out, "warmup") || strings.Contains(out, "custom_pass") {
		t.Fatalf("unknown span names leaked as rows:\n%s", out)
	}
	if f := strings.Fields(rows["other"]); f[1] != "0.0040" || f[3] != "2" || f[len(f)-1] != "items=7" {
		t.Fatalf("other row not aggregated:\n%s", out)
	}
}
