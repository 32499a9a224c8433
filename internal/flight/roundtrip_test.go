package flight_test

// Round-trip tests: record an experiment through the public facade, then
// replay it offline from the bundle alone. The replay path constructs no
// oracle.Chip — flight does not even import internal/oracle — so a passing
// round trip proves the bundle is self-contained: the attack re-derives the
// identical result with the chip simulator fully absent.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dynunlock"
	"dynunlock/internal/flight"
)

// recordExperiment runs cfg with a recorder attached and returns the bundle
// directory and the live experiment result.
func recordExperiment(t *testing.T, cfg dynunlock.ExperimentConfig) (string, *dynunlock.ExperimentResult) {
	t.Helper()
	dir := t.TempDir()
	rec, err := flight.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec.Tool = "test"
	cfg.Recorder = rec
	res, err := dynunlock.RunExperimentCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, res
}

func roundTripConfigs() map[string]dynunlock.ExperimentConfig {
	return map[string]dynunlock.ExperimentConfig{
		"s5378": {Benchmark: "s5378", KeyBits: 16, Policy: dynunlock.PerCycle,
			Scale: 16, Trials: 2, SeedBase: 7},
		"b17": {Benchmark: "b17", KeyBits: 12, Policy: dynunlock.PerCycle,
			Scale: 16, Trials: 1, SeedBase: 3},
	}
}

func TestRecordReplayBitIdentical(t *testing.T) {
	for name, cfg := range roundTripConfigs() {
		t.Run(name, func(t *testing.T) {
			dir, live := recordExperiment(t, cfg)
			b, err := flight.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			// The trials the facade returned are the records result.json
			// holds, field for field.
			if !reflect.DeepEqual(live.Trials, b.Result.Trials) {
				t.Fatalf("result.json trials differ from the returned ones:\nrecorded %+v\nreturned %+v",
					b.Result.Trials, live.Trials)
			}

			replayed, err := b.Replay(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if diffs := flight.Compare(&b.Result, replayed); len(diffs) != 0 {
				t.Fatalf("replay diverged:\n  %s", strings.Join(diffs, "\n  "))
			}
			// Spot-check the bit-identical fields the issue pins down.
			for i := range replayed.Trials {
				a, c := b.Result.Trials[i], replayed.Trials[i]
				if a.Iterations != c.Iterations || a.Queries != c.Queries {
					t.Errorf("trial %d: iterations/queries %d/%d != %d/%d",
						i, a.Iterations, a.Queries, c.Iterations, c.Queries)
				}
				if len(a.SeedCandidates) != len(c.SeedCandidates) {
					t.Fatalf("trial %d: candidate count %d != %d",
						i, len(a.SeedCandidates), len(c.SeedCandidates))
				}
				for j := range a.SeedCandidates {
					if a.SeedCandidates[j] != c.SeedCandidates[j] {
						t.Fatalf("trial %d candidate %d: %s != %s",
							i, j, a.SeedCandidates[j], c.SeedCandidates[j])
					}
				}
			}
		})
	}
}

func TestRecordingDoesNotPerturbAttack(t *testing.T) {
	cfg := roundTripConfigs()["s5378"]
	_, recorded := recordExperiment(t, cfg)
	plain, err := dynunlock.RunExperimentCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded.Trials) != len(plain.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(recorded.Trials), len(plain.Trials))
	}
	// Every field but the wall time must match.
	for i := range plain.Trials {
		r, p := recorded.Trials[i], plain.Trials[i]
		r.Seconds, p.Seconds = 0, 0
		if !reflect.DeepEqual(r, p) {
			t.Errorf("trial %d: recorded run %+v != plain run %+v", i, r, p)
		}
	}
}

func TestReplayWithMissingSessionsFailsTyped(t *testing.T) {
	cfg := roundTripConfigs()["s5378"]
	dir, _ := recordExperiment(t, cfg)
	// Drop the last transcript line (a whole, valid line — the file still
	// parses; the replay runs out of answers instead).
	path := filepath.Join(dir, flight.OracleFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("fixture too small: %d transcript lines", len(lines))
	}
	trimmed := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	if err := os.WriteFile(path, []byte(trimmed), 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := flight.Open(dir)
	if err != nil {
		t.Fatalf("a shortened-but-valid transcript must still open: %v", err)
	}
	_, err = b.Replay(context.Background())
	if err == nil {
		t.Fatal("replay succeeded with sessions missing from the transcript")
	}
	if !errors.Is(err, flight.ErrOracleMiss) {
		t.Fatalf("replay error = %v, want errors.Is(_, ErrOracleMiss)", err)
	}
}

func TestReplayChipServesNoInventedSessions(t *testing.T) {
	cfg := roundTripConfigs()["b17"]
	dir, _ := recordExperiment(t, cfg)
	b, err := flight.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := b.ReplayChip(0)
	if err != nil {
		t.Fatal(err)
	}
	d := chip.Design()
	// A query the recording never issued: correctly-sized zeros come back,
	// no panic, and Err latches.
	bogusKey := make([]bool, d.Config.KeyBits)
	bogusIn := make([]bool, d.Chain.Length)
	bogusIn[0] = true
	pi := make([]bool, d.View.NumPI)
	out, po := chip.Session(bogusKey, bogusIn, pi)
	if len(out) != d.Chain.Length || len(po) != d.View.NumPO {
		t.Errorf("miss response sized %d/%d, want %d/%d",
			len(out), len(po), d.Chain.Length, d.View.NumPO)
	}
	if chip.Err() == nil {
		t.Fatal("transcript miss did not latch an error")
	}
	if !errors.Is(chip.Err(), flight.ErrOracleMiss) {
		t.Fatalf("miss error = %v, want errors.Is(_, ErrOracleMiss)", chip.Err())
	}
}
