// Command dynbench is the repository benchmark: it runs DynUnlock attacks
// on three workloads, checks every recovered seed, and prints every
// end-to-end metric (untraced runs) or every per-layer metric (traced runs)
// by name with its unit.
//
// Usage:
//
//	go run . -workload paper128 -seed 1 -seconds 30 -trace 0
//	go run . -workload scaled_sweep -workload daemon_jobs -trace 1 -spans spans.jsonl
//
// With no -workload every workload runs. Each workload runs in its own
// process (the command re-executes itself), so peak RSS belongs to that
// workload alone. The last line of standard output is one JSON object,
// {"correct", "attempted", "failed", "metrics"}, per workload; a human
// table goes to standard error. Any failed attack makes the exit code 1.
// README.md describes the workloads, the metrics and how to compare two
// commits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one catalogued metric. e2e metrics are printed by untraced
// runs, the others by traced runs.
type metricDef struct {
	name string
	unit string
	e2e  bool
}

// catalog lists every metric the benchmark prints. BENCHMARK.json names the
// same set; main_test.go keeps the two in step.
var catalog = []metricDef{
	{"attack_s_geomean", "s", true},
	{"throughput_per_s", "1/s", true},
	{"setup_s", "s", true},
	{"max_rss_mb", "MB", true},
	{"alloc_mb_per_attack", "MB", true},

	{"bench.build_s", "s", false},
	{"lock.lock_s", "s", false},
	{"oracle.sessions", "count", false},
	{"oracle.cycles", "count", false},
	{"oracle.session_s", "s", false},
	{"oracle.session_us_p50", "us", false},
	{"core.unroll_s", "s", false},
	{"core.refine_s", "s", false},
	{"core.verify_s", "s", false},
	{"encode.initial_s", "s", false},
	{"encode.aig_nodes", "count", false},
	{"encode.vars", "count", false},
	{"encode.clauses", "count", false},
	{"satattack.dips", "count", false},
	{"satattack.queries", "count", false},
	{"satattack.dip_loop_s", "s", false},
	{"satattack.between_dips_s", "s", false},
	{"satattack.final_solve_s", "s", false},
	{"sat.dip_solve_s", "s", false},
	{"sat.extract_s", "s", false},
	{"sat.enumerate_s", "s", false},
	{"sat.conflicts", "count", false},
	{"sat.decisions", "count", false},
	{"sat.propagations", "count", false},
	{"sat.xor_propagations", "count", false},
	{"sat.xor_conflicts", "count", false},
	{"sat.restarts", "count", false},
	{"sat.learnt", "count", false},
	{"sat.removed", "count", false},
	{"sat.simplify_removed", "count", false},
	{"sat.props_per_s", "1/s", false},
	{"sat.ns_per_conflict", "ns", false},
	{"sat.xor_share", "ratio", false},
	{"sat.time_share", "ratio", false},
	{"go.gc_cycles", "count", false},
	{"go.gc_pause_ms", "ms", false},
	{"sweep.efficiency", "ratio", false},
	{"daemon.submit_ms_p50", "ms", false},
	{"daemon.queue_s_p50", "s", false},
	{"daemon.run_s_p50", "s", false},
	{"daemon.job_overhead_s_p50", "s", false},
	{"daemon.rejected", "count", false},
	{"stream.events_per_job", "count", false},
	{"stream.terminal_lag_ms_p50", "ms", false},
	{"stream.gaps", "count", false},
	{"flight.bundle_kb_per_job", "KB", false},
	{"metrics.scrape_ms", "ms", false},
	{"metrics.series", "count", false},
	{"trace.overhead_ratio", "ratio", false},
	{"trace.other_share", "ratio", false},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a workload prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOutput is what a workload run hands back to main: the printed values,
// their sample counts for the human table, and the traced run's layer table.
type runOutput struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
	layers            *layerTable
}

// toResult keeps the catalogued metrics of one kind (end-to-end or
// per-layer) and attaches their units. A catalogued metric the run did not
// produce is an error: every run prints its whole set.
func (o *runOutput) toResult(traced bool) (*result, error) {
	r := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric),
	}
	for _, m := range catalog {
		if m.e2e == traced {
			continue
		}
		v, ok := o.values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		r.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return r, nil
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var names multiFlag
	flag.Var(&names, "workload", "workload to run (repeatable): paper128, scaled_sweep, daemon_jobs; default all")
	seed := flag.Int64("seed", 1, "workload seed: picks the chip secrets (1 reproduces the committed paper128 bundles)")
	seconds := flag.Float64("seconds", 30, "measure for this many seconds; rounds already started run to completion")
	traced := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	spansPath := flag.String("spans", "", "with -trace 1, write the recorded spans to this JSONL file at exit")
	child := flag.Bool("child", false, "run one workload in this process (set by the parent process)")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fatalf("-trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		if _, ok := workloadByName(n); !ok {
			fatalf("unknown workload %q", n)
		}
	}

	if *child {
		if len(names) != 1 {
			fatalf("-child runs exactly one workload")
		}
		go func() {
			// Standard input is a pipe from the parent: end of input means
			// the parent is gone.
			io.Copy(io.Discard, os.Stdin)
			fatalf("parent process exited")
		}()
		w, _ := workloadByName(names[0])
		os.Exit(runChild(w, *seed, *seconds, *traced == 1, *spansPath))
	}

	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	for _, n := range names {
		args := []string{"-child", "-workload", n, "-seed", strconv.FormatInt(*seed, 10),
			"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", strconv.Itoa(*traced)}
		if *spansPath != "" {
			args = append(args, "-spans", spanFileFor(*spansPath, n, len(names)))
		}
		rc, err := runIsolated(exe, args)
		if err != nil {
			fatalf("%s: %v", n, err)
		}
		code = max(code, rc)
	}
	os.Exit(code)
}

// spanFileFor gives each workload its own span file when several run.
func spanFileFor(path, workload string, n int) string {
	if n == 1 {
		return path
	}
	ext := ""
	if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
		path, ext = path[:i], path[i:]
	}
	return path + "." + workload + ext
}

// runIsolated runs one workload in a child process, so its memory and
// runtime state are its own, and returns the child's exit code. The child
// prints its own result line.
func runIsolated(exe string, args []string) (int, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	// The child exits when this pipe closes, so it never outlives its
	// parent; nothing is ever written to it.
	if _, err := cmd.StdinPipe(); err != nil {
		return 0, err
	}
	err := cmd.Run()
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		return exitErr.ExitCode(), nil
	}
	return 0, err
}

// runChild runs one workload in this process and prints its result line.
func runChild(w workload, seed int64, seconds float64, traced bool, spansPath string) int {
	var spans *spanLog
	if traced {
		spans = newSpanLog()
	}
	out, err := w.run(w, seed, budget{seconds: seconds}, spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynbench: %s: %v\n", w.name, err)
		return 2
	}
	res, err := out.toResult(traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynbench: %s: %v\n", w.name, err)
		return 2
	}
	printTable(w.name, traced, out)
	if spans != nil && spansPath != "" {
		if err := spans.writeFile(spansPath); err != nil {
			fmt.Fprintf(os.Stderr, "dynbench: %s: %v\n", w.name, err)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynbench: %s: %v\n", w.name, err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printTable writes the human-readable view of a run to standard error.
func printTable(name string, traced bool, out *runOutput) {
	kind := "end-to-end (untraced)"
	if traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(os.Stderr, "dynbench %s: %s, %d attempted, %d failed\n", name, kind, out.attempted, out.failed)
	keys := make([]string, 0, len(out.values))
	for k := range out.values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	units := make(map[string]string, len(catalog))
	for _, m := range catalog {
		units[m.name] = m.unit
	}
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %-6s n=%d\n", k, out.values[k], units[k], out.samples[k])
	}
	if out.layers != nil {
		out.layers.print(os.Stderr)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dynbench: "+format+"\n", args...)
	os.Exit(2)
}
