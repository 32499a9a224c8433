// Benchmark harness regenerating every table and figure of the paper.
//
// Each testing.B benchmark runs the full pipeline (lock → fabricate →
// attack) for one experimental condition and reports the paper's metrics
// as custom benchmark units (candidates, iterations) beside ns/op.
//
// Circuit and key sizes default to 1/16 of the paper's (minutes instead of
// hours on the from-scratch CDCL solver); set DYNUNLOCK_SCALE=1 for
// paper-scale runs:
//
//	go test -bench 'TableII' -benchmem                  # scaled
//	DYNUNLOCK_SCALE=1 go test -bench 'TableII' -timeout 24h
//
// cmd/tables prints the same data as paper-formatted tables.
package dynunlock

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"dynunlock/internal/bench"
	"dynunlock/internal/core"
	"dynunlock/internal/flight"
)

func scaleFactor() int {
	if s := os.Getenv("DYNUNLOCK_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 {
			return v
		}
	}
	return 16
}

func scaledKey(kb, scale int) int {
	if scale <= 1 {
		return kb
	}
	if kb /= scale; kb < 8 {
		return 8
	}
	return kb
}

// runAttack locks the benchmark, fabricates one chip per iteration, and
// attacks it, reporting candidates/iterations as benchmark metrics.
// Solver conflicts are reported too: unlike
// ns/op they are machine-speed independent, so perf regressions in the
// search itself stay visible; props/s and ns/conflict divide the solver's
// work by the attack's wall time and measure the solver's speed.
func runAttack(b *testing.B, name string, keyBits int, policy Policy) {
	b.Helper()
	b.ReportAllocs()
	scale := scaleFactor()
	design, err := LockBenchmark(name, scaledKey(keyBits, scale), policy, scale)
	if err != nil {
		b.Fatal(err)
	}
	var cands, iters, successes, conflicts, props float64
	var attackTime time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip, err := Fabricate(design, int64(i)*7919+101)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		res, err := core.Attack(chip, core.Options{EnumerateLimit: 256})
		attackTime += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		cands += float64(len(res.SeedCandidates))
		iters += float64(res.Iterations)
		conflicts += float64(res.SolverStats.Conflicts)
		props += float64(res.SolverStats.Propagations)
		if core.ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
			successes++
		}
	}
	b.ReportMetric(cands/float64(b.N), "candidates")
	b.ReportMetric(iters/float64(b.N), "iterations")
	b.ReportMetric(successes/float64(b.N), "success")
	b.ReportMetric(conflicts/float64(b.N), "conflicts")
	b.ReportMetric(props/attackTime.Seconds(), "props/s")
	if conflicts > 0 {
		b.ReportMetric(float64(attackTime.Nanoseconds())/conflicts, "ns/conflict")
	}
}

// --- Table I: evolution of scan locking -------------------------------

func BenchmarkTableI_EFF_vs_ScanSAT(b *testing.B) {
	scale := scaleFactor()
	design, err := LockBenchmark("s5378", scaledKey(128, scale), Static, scale)
	if err != nil {
		b.Fatal(err)
	}
	var successes float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip, err := Fabricate(design, int64(i)+5)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Attack(chip, core.Options{EnumerateLimit: 256})
		if err != nil {
			b.Fatal(err)
		}
		if core.ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
			successes++
		}
	}
	b.ReportMetric(successes/float64(b.N), "success")
}

func BenchmarkTableI_DOS_vs_DynUnlock(b *testing.B) {
	runAttack(b, "s5378", 128, PerPattern)
}

func BenchmarkTableI_EFFDyn_vs_DynUnlock(b *testing.B) {
	runAttack(b, "s5378", 128, PerCycle)
}

// --- Table II: ten benchmarks, 128-bit dynamic keys -------------------

func BenchmarkTableII_s5378(b *testing.B)  { runAttack(b, "s5378", 128, PerCycle) }
func BenchmarkTableII_s13207(b *testing.B) { runAttack(b, "s13207", 128, PerCycle) }
func BenchmarkTableII_s15850(b *testing.B) { runAttack(b, "s15850", 128, PerCycle) }
func BenchmarkTableII_s38584(b *testing.B) { runAttack(b, "s38584", 128, PerCycle) }
func BenchmarkTableII_s38417(b *testing.B) { runAttack(b, "s38417", 128, PerCycle) }
func BenchmarkTableII_s35932(b *testing.B) { runAttack(b, "s35932", 128, PerCycle) }
func BenchmarkTableII_b20(b *testing.B)    { runAttack(b, "b20", 128, PerCycle) }
func BenchmarkTableII_b21(b *testing.B)    { runAttack(b, "b21", 128, PerCycle) }
func BenchmarkTableII_b22(b *testing.B)    { runAttack(b, "b22", 128, PerCycle) }
func BenchmarkTableII_b17(b *testing.B)    { runAttack(b, "b17", 128, PerCycle) }

// --- Concurrent sweep runner: Table II conditions in parallel ---------

// benchSweep runs the first four Table II conditions as independent
// experiments through the bench.Sweep worker pool. 1 worker is the
// sequential reference whose results are bit-identical by construction.
// On a multi-core host the parallel variant shows the sweep speedup; on a
// single-core host both variants measure the same work.
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	scale := scaleFactor()
	conds := bench.Table2[:4]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := bench.Sweep(workers, conds, func(j int, e bench.Entry) (*ExperimentResult, error) {
			return RunExperimentCtx(context.Background(), ExperimentConfig{
				Benchmark: e.Name,
				KeyBits:   scaledKey(128, scale),
				Policy:    PerCycle,
				Scale:     scale,
				Trials:    1,
				SeedBase:  int64(j)*104729 + 13,
			})
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if !flight.Summarize(r.Trials).Broken {
				b.Fatalf("%s: attack failed", r.Entry.Name)
			}
		}
	}
}

func BenchmarkSweep_TableII_Sequential(b *testing.B) { benchSweep(b, 1) }
func BenchmarkSweep_TableII_Parallel(b *testing.B)   { benchSweep(b, runtime.GOMAXPROCS(0)) }

// --- Table III: key-size sweep on the three largest benchmarks --------

func benchTableIII(b *testing.B, name string) {
	for kb := 144; kb <= 368; kb += 32 {
		kb := kb
		b.Run("K"+strconv.Itoa(kb), func(b *testing.B) {
			runAttack(b, name, kb, PerCycle)
		})
	}
}

func BenchmarkTableIII_s38584(b *testing.B) { benchTableIII(b, "s38584") }
func BenchmarkTableIII_s38417(b *testing.B) { benchTableIII(b, "s38417") }
func BenchmarkTableIII_s35932(b *testing.B) { benchTableIII(b, "s35932") }

// --- Fig. 1 / Fig. 4: the s208 walkthrough -----------------------------

// BenchmarkFig1_LockS208 measures applying EFF-Dyn locking to the 8-flop
// walkthrough circuit.
func BenchmarkFig1_LockS208(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := bench.S208F()
		if _, err := LockNetlist(n, 3, PerCycle); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_ModelS208 measures Algorithm 1: unrolling the locked scan
// session into the combinational model with seed-bit key inputs.
func BenchmarkFig4_ModelS208(b *testing.B) {
	n := bench.S208F()
	design, err := LockNetlist(n, 3, PerCycle)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildModel(design, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3_AttackFlow measures the full Fig. 3 attack flow on the
// walkthrough circuit (model, SAT loop, seed recovery).
func BenchmarkFig3_AttackFlow(b *testing.B) {
	n := bench.S208F()
	design, err := LockNetlist(n, 3, PerCycle)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip, err := Fabricate(design, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Attack(chip, core.Options{EnumerateLimit: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 2: authentication scheme overhead ----------------------------

// BenchmarkFig2_SessionDynamic measures one obfuscated scan session on the
// mismatching-test-key (PRNG) path.
func BenchmarkFig2_SessionDynamic(b *testing.B) {
	scale := scaleFactor()
	design, err := LockBenchmark("s5378", scaledKey(128, scale), PerCycle, scale)
	if err != nil {
		b.Fatal(err)
	}
	chip, err := Fabricate(design, 3)
	if err != nil {
		b.Fatal(err)
	}
	scanIn := make([]bool, design.Chain.Length)
	pi := make([]bool, design.View.NumPI)
	tk := make([]bool, design.Config.KeyBits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.Reset()
		chip.Session(tk, scanIn, pi)
	}
}

// --- Ablations ----------------------------------------------------------

// BenchmarkAblation_ModeDirect and _ModeLinear compare the paper-faithful
// seed-space formulation with the linear mask-space formulation on an
// instance small enough for both (see DESIGN.md).
func BenchmarkAblation_ModeDirect(b *testing.B) { benchMode(b, ModeDirect) }

// BenchmarkAblation_ModeLinear is the linear-mode counterpart.
func BenchmarkAblation_ModeLinear(b *testing.B) { benchMode(b, ModeLinear) }

func benchMode(b *testing.B, mode Mode) {
	n, err := bench.Generate(bench.GenConfig{Name: "abl", PIs: 6, POs: 3, FFs: 16, Gates: 128, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	design, err := LockNetlist(n, 8, PerCycle)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip, err := Fabricate(design, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Attack(chip, core.Options{Mode: mode, EnumerateLimit: 256})
		if err != nil {
			b.Fatal(err)
		}
		if !core.ContainsSeed(res.SeedCandidates, chip.SecretSeed()) {
			b.Fatal("attack failed")
		}
	}
}
