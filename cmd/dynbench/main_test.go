package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// tiny is the test-only workload size: one circuit at scale 32.
func tiny(run func(workload, int64, budget, *spanLog) (*runOutput, error), t *testing.T) workload {
	return workload{name: "tiny", circuits: []string{"s5378"}, scale: 32, keyBits: 8, lanes: 1,
		workDir: t.TempDir(), run: run}
}

// twoRounds fixes the round count so repeated runs do identical work.
var twoRounds = budget{rounds: 2}

type benchFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	units := make(map[string]string)
	for _, m := range append(f.EndToEnd, f.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return units
}

func runTiny(t *testing.T, run func(workload, int64, budget, *spanLog) (*runOutput, error), traced bool) *runOutput {
	t.Helper()
	var spans *spanLog
	if traced {
		spans = newSpanLog()
	}
	out, err := run(tiny(run, t), 7, twoRounds, spans)
	if err != nil {
		t.Fatal(err)
	}
	if out.attempted == 0 || out.failed != 0 {
		t.Fatalf("attempted %d, failed %d; want every attack correct", out.attempted, out.failed)
	}
	if traced && len(spans.recorded) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	return out
}

// TestEveryMetricEmitted checks that the catalog is BENCHMARK.json's metric
// set and that both workload kinds print all of it, untraced and traced.
func TestEveryMetricEmitted(t *testing.T) {
	units := readBenchFile(t)
	if len(units) != len(catalog) {
		t.Fatalf("BENCHMARK.json names %d metrics, the catalog %d", len(units), len(catalog))
	}
	for _, m := range catalog {
		if units[m.name] != m.unit {
			t.Errorf("%s: BENCHMARK.json unit %q, catalog %q", m.name, units[m.name], m.unit)
		}
	}
	for _, run := range []func(workload, int64, budget, *spanLog) (*runOutput, error){runInProcess, runDaemon} {
		for _, traced := range []bool{false, true} {
			out := runTiny(t, run, traced)
			res, err := out.toResult(traced)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range res.Metrics {
				if m.Unit != units[name] || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v %q", name, m.Value, m.Unit)
				}
			}
			if !res.Correct {
				t.Error("result not correct")
			}
		}
	}
}

// refCount reports whether a metric is one of the first round's counts,
// which depend only on the seed.
func refCount(m metricDef) bool {
	if m.unit != "count" {
		return false
	}
	for _, layer := range []string{"oracle.", "encode.", "satattack.", "sat."} {
		if strings.HasPrefix(m.name, layer) {
			return true
		}
	}
	return false
}

// TestCountsRepeat runs each traced workload twice with one seed: the
// search counts must agree exactly.
func TestCountsRepeat(t *testing.T) {
	for _, run := range []func(workload, int64, budget, *spanLog) (*runOutput, error){runInProcess, runDaemon} {
		a, b := runTiny(t, run, true), runTiny(t, run, true)
		n := 0
		for _, m := range catalog {
			if !refCount(m) {
				continue
			}
			n++
			if a.values[m.name] != b.values[m.name] {
				t.Errorf("%s: %v then %v", m.name, a.values[m.name], b.values[m.name])
			}
		}
		if n < 15 || a.values["sat.conflicts"] == 0 {
			t.Fatalf("%d count metrics compared, %v conflicts", n, a.values["sat.conflicts"])
		}
	}
}

// TestLayerRowsSumToWall checks the traced runs' layer tables: the rows
// plus other equal the traced wall time, and nothing is negative.
func TestLayerRowsSumToWall(t *testing.T) {
	for _, run := range []func(workload, int64, budget, *spanLog) (*runOutput, error){runInProcess, runDaemon} {
		tab := runTiny(t, run, true).layers
		if tab == nil || tab.attacks == 0 || tab.wall <= 0 {
			t.Fatalf("empty layer table %+v", tab)
		}
		sum := tab.other()
		for row, v := range tab.rows {
			if v < 0 {
				t.Errorf("row %s is negative: %v", row, v)
			}
			sum += v / float64(tab.lanes)
		}
		if math.Abs(sum-tab.wall) > 1e-9 || tab.other() < 0 {
			t.Errorf("rows + other = %v, traced wall %v, other %v", sum, tab.wall, tab.other())
		}
	}
}
