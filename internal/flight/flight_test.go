package flight

import (
	"errors"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"dynunlock/internal/metrics"
	"dynunlock/internal/sat"
	"dynunlock/internal/scan"
)

func TestBitStringRoundTrip(t *testing.T) {
	cases := [][]bool{{}, {true}, {false}, {true, false, true, true, false}}
	for _, bs := range cases {
		s := BitString(bs)
		got, err := ParseBits(s)
		if err != nil {
			t.Fatalf("ParseBits(%q): %v", s, err)
		}
		if len(got) != len(bs) {
			t.Fatalf("round trip length %d != %d", len(got), len(bs))
		}
		for i := range bs {
			if got[i] != bs[i] {
				t.Fatalf("round trip of %q differs at %d", s, i)
			}
		}
	}
	if _, err := ParseBits("01x"); err == nil {
		t.Error("ParseBits accepted a non-bit byte")
	}
}

// TestGitCommitMarksModifiedTree pins the fingerprint's commit: a build
// from an edited tree names its base commit with "-dirty" appended, a
// clean build names the commit alone, and a build without a VCS stamp
// names none.
func TestGitCommitMarksModifiedTree(t *testing.T) {
	const rev = "0123456789abcdef0123456789abcdef01234567"
	for _, c := range []struct {
		settings []debug.BuildSetting
		want     string
	}{
		{[]debug.BuildSetting{{Key: "vcs.revision", Value: rev}, {Key: "vcs.modified", Value: "false"}}, rev},
		{[]debug.BuildSetting{{Key: "vcs.modified", Value: "true"}, {Key: "vcs.revision", Value: rev}}, rev + "-dirty"},
		{[]debug.BuildSetting{{Key: "vcs.revision", Value: rev}}, rev},
		{[]debug.BuildSetting{{Key: "vcs.modified", Value: "true"}}, ""},
		{nil, ""},
	} {
		if got := gitCommit(c.settings); got != c.want {
			t.Errorf("gitCommit(%v) = %q, want %q", c.settings, got, c.want)
		}
	}
}

func TestPolicyTokenRoundTrip(t *testing.T) {
	for _, p := range []scan.Policy{scan.Static, scan.PerPattern, scan.PerCycle} {
		got, err := ParsePolicy(policyToken(p))
		if err != nil {
			t.Fatalf("ParsePolicy(policyToken(%v)): %v", p, err)
		}
		if got != p {
			t.Errorf("policy round trip: %v -> %q -> %v", p, policyToken(p), got)
		}
	}
	if _, err := ParsePolicy("per-cycle(EFF-Dyn)"); err == nil {
		t.Error("ParsePolicy accepted an annotated display name")
	}
}

func validManifest() Manifest {
	return Manifest{
		FormatVersion: FormatVersion,
		CreatedAt:     "2026-08-05T00:00:00Z",
		Benchmark:     "s5378",
		Scale:         16,
		Trials:        1,
		Mode:          "linear",
		Lock: LockInfo{
			KeyBits:     8,
			NumGates:    8,
			Policy:      "per-cycle",
			PolyN:       8,
			PolyTaps:    []int{8, 6, 5, 4},
			ChainLength: 10,
			Gates:       []GateInfo{{Link: 1, KeyBit: 0}, {Link: 2, KeyBit: 1}},
		},
		Fingerprint: Fingerprint{GoVersion: "go1.24.0"},
	}
}

func TestValidateManifest(t *testing.T) {
	m := validManifest()
	if err := ValidateManifest(&m); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	breakers := map[string]func(*Manifest){
		"formatVersion": func(m *Manifest) { m.FormatVersion = 99 },
		"createdAt":     func(m *Manifest) { m.CreatedAt = "yesterday" },
		"benchmark":     func(m *Manifest) { m.Benchmark = "" },
		"trials":        func(m *Manifest) { m.Trials = 0 },
		"mode":          func(m *Manifest) { m.Mode = "quantum" },
		"policy":        func(m *Manifest) { m.Lock.Policy = "per-cycle(EFF-Dyn)" },
		"polyN":         func(m *Manifest) { m.Lock.PolyN = 4 },
		"tap range":     func(m *Manifest) { m.Lock.PolyTaps = []int{99} },
		"gate link":     func(m *Manifest) { m.Lock.Gates[0].Link = 10 },
		"gate keyBit":   func(m *Manifest) { m.Lock.Gates[0].KeyBit = 8 },
		"no gates":      func(m *Manifest) { m.Lock.Gates = nil },
		"fingerprint":   func(m *Manifest) { m.Fingerprint.GoVersion = "" },
	}
	for name, breaker := range breakers {
		m := validManifest()
		breaker(&m)
		if err := ValidateManifest(&m); err == nil {
			t.Errorf("%s: invalid manifest accepted", name)
		}
	}
}

// writeBundleFixture materializes a minimal on-disk bundle for Open tests.
func writeBundleFixture(t *testing.T, dir string) {
	t.Helper()
	rec, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteManifest(validManifest()); err != nil {
		t.Fatal(err)
	}
	rec.RecordTrial(TrialRecord{Trial: 0, SecretSeed: "10000000", Iterations: 1, Queries: 1})
	rec.AppendDIP(DIPRecord{Trial: 0, Iteration: 1, DIP: "10", Response: "0",
		Solver: FromSatStats(sat.Stats{Conflicts: 7})})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	// One hand-written session line (WrapChip needs a live chip; Open only
	// needs the file).
	line := `{"trial":0,"seq":0,"testKey":"00000000","scanIn":"0000000000","pis":["00"],"scanOut":"0000000000","pos":["0"],"cycles":21}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, OracleFile), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
}

// A bundle older than format 5 may have been recorded on a retired encode
// path, so both readers refuse it with a typed error that names the
// version and asks for a re-recording, instead of replaying it on the one
// pipeline.
func TestOpenRefusesPreV5Bundle(t *testing.T) {
	dir := t.TempDir()
	writeBundleFixture(t, dir)
	m := validManifest()
	m.FormatVersion = 4
	if err := writeJSONFile(filepath.Join(dir, ManifestFile), &m); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func(string) (*Bundle, error){"Open": Open, "OpenPartial": OpenPartial} {
		_, err := open(dir)
		var be *BundleError
		if !errors.As(err, &be) || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want a *BundleError wrapping ErrCorrupt", name, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "formatVersion 4") || !strings.Contains(msg, "re-record") {
			t.Errorf("%s: error %q does not name the version and ask for a re-recording", name, msg)
		}
	}
}

func TestOpenParsesFixture(t *testing.T) {
	dir := t.TempDir()
	writeBundleFixture(t, dir)
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Sessions) != 1 || len(b.DIPs) != 1 || len(b.Result.Trials) != 1 {
		t.Fatalf("fixture parse: %d sessions, %d dips, %d trials",
			len(b.Sessions), len(b.DIPs), len(b.Result.Trials))
	}
	if b.Sessions[0].Cycles != 21 || b.DIPs[0].DIP != "10" {
		t.Errorf("fixture content wrong: %+v %+v", b.Sessions[0], b.DIPs[0])
	}
}

func TestOpenCorruptOracleIsTypedError(t *testing.T) {
	dir := t.TempDir()
	writeBundleFixture(t, dir)
	path := filepath.Join(dir, OracleFile)
	if err := os.WriteFile(path, []byte("{\"trial\":0,\n not json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	if err == nil {
		t.Fatal("Open accepted a corrupt oracle.jsonl")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt oracle error = %v, want errors.Is(_, ErrCorrupt)", err)
	}
	var be *BundleError
	if !errors.As(err, &be) {
		t.Fatalf("corrupt oracle error %T does not unwrap to *BundleError", err)
	}
	if be.Line != 1 {
		t.Errorf("BundleError.Line = %d, want 1", be.Line)
	}
}

func TestOpenTruncatedOracleIsTypedError(t *testing.T) {
	dir := t.TempDir()
	writeBundleFixture(t, dir)
	path := filepath.Join(dir, OracleFile)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-line, as a crashed recorder would leave it.
	if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated oracle error = %v, want errors.Is(_, ErrCorrupt)", err)
	}
}

func TestOpenCorruptManifestIsTypedError(t *testing.T) {
	dir := t.TempDir()
	writeBundleFixture(t, dir)
	m := validManifest()
	m.Lock.Gates[0].Link = 99 // schema violation, not a JSON parse error
	if err := writeJSONFile(filepath.Join(dir, ManifestFile), &m); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("schema-violating manifest error = %v, want errors.Is(_, ErrCorrupt)", err)
	}
}

// TestReadTraceDecodesClosingSample pins the trace reader's typed sample:
// spans and the last snapshot line decode, and an ill-typed or oversized
// lbd_counts is a typed corrupt-bundle error naming its line.
func TestReadTraceDecodesClosingSample(t *testing.T) {
	counts := func(n int) string {
		return "[" + strings.TrimSuffix(strings.Repeat("1,", n), ",") + "]"
	}
	write := func(t *testing.T, closing string) string {
		t.Helper()
		dir := t.TempDir()
		lines := `{"ev":"span_end","span":"dip_loop","dur_ms":2,"counters":{"dips":3}}` + "\n" +
			`{"ev":"snapshot","fields":{"conflicts":9}}` + "\n" +
			`{"ev":"snapshot","fields":{"conflicts":12,"lbd_samples":13,"lbd_mean":4.5,"lbd_counts":` + closing + `}}` + "\n"
		if err := os.WriteFile(filepath.Join(dir, TraceFile), []byte(lines), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	tr, err := ReadTrace(write(t, counts(len(metrics.LBDBuckets)+1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "dip_loop" || tr.Spans[0].Counters["dips"] != 3 {
		t.Errorf("spans = %+v", tr.Spans)
	}
	if c := tr.Closing; c == nil || c.Conflicts != 12 || c.LBDSamples != 13 || c.LBDMean != 4.5 ||
		len(c.LBDCounts) != len(metrics.LBDBuckets)+1 {
		t.Errorf("closing sample = %+v, want the last snapshot line", c)
	}
	for name, closing := range map[string]string{
		"ill-typed": `["many"]`,
		"oversized": counts(len(metrics.LBDBuckets) + 2),
	} {
		_, err := ReadTrace(write(t, closing))
		var be *BundleError
		if !errors.Is(err, ErrCorrupt) || !errors.As(err, &be) || be.Line != 3 {
			t.Errorf("%s lbd_counts: ReadTrace error %v, want ErrCorrupt at line 3", name, err)
		}
	}
}

func TestBenchFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_attack.json")
	f, err := ReadBenchFile(path)
	if err != nil {
		t.Fatalf("missing ledger should read as empty: %v", err)
	}
	row := BenchRow{Benchmark: "s5378", Scale: 16, KeyBits: 8, Policy: "per-cycle",
		Mode: "linear", Trials: 2, AvgIterations: 3, Broken: true}
	f.Rows = append(f.Rows, row)
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	g, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 1 || g.Rows[0] != row {
		t.Fatalf("ledger round trip: %+v", g.Rows)
	}
	if got, ok := g.FindRow(BenchRow{Benchmark: "s5378", Scale: 16, KeyBits: 8,
		Policy: "per-cycle", Mode: "linear"}); !ok || got.AvgIterations != 3 {
		t.Errorf("FindRow: %+v %v", got, ok)
	}
	if _, ok := g.FindRow(BenchRow{Benchmark: "b17"}); ok {
		t.Error("FindRow matched a different configuration")
	}
}
