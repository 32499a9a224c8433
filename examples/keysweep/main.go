// Key-size sweep in the style of the paper's Table III: a fixed circuit,
// increasing LFSR widths. While the key fits inside the constraints the
// scan session exposes (rank[A;B]), the unique seed is recovered; once it
// outgrows them the candidate class grows as 2^(k−rank) — exactly the
// paper's observation that s38417 reaches 16 candidates at k ≥ 288 while
// larger-rank circuits stay at 1. Every class still contains the secret
// and every member unlocks the chain.
//
//	go run ./examples/keysweep
//	go run ./examples/keysweep -ffs 24 -kmax 40
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"dynunlock"
	"dynunlock/internal/bench"
	"dynunlock/internal/core"
	"dynunlock/internal/report"
)

func main() {
	var (
		ffs  = flag.Int("ffs", 10, "scan flops in the swept circuit")
		kmin = flag.Int("kmin", 6, "smallest key width")
		kmax = flag.Int("kmax", 30, "largest key width")
		step = flag.Int("step", 4, "key width step")
	)
	flag.Parse()

	n, err := bench.Generate(bench.GenConfig{
		Name: "sweep", PIs: 6, POs: 3, FFs: *ffs, Gates: 8 * *ffs, Seed: 31,
	})
	if err != nil {
		log.Fatal(err)
	}

	tb := report.New(
		fmt.Sprintf("Key-size sweep on a %d-flop circuit — Table III shape", *ffs),
		"Key bits", "Rank[A;B]", "Predicted", "# Seed candidates", "# Iterations", "Secret in class", "Time (s)")

	for kb := *kmin; kb <= *kmax; kb += *step {
		design, err := dynunlock.LockNetlist(n, kb, dynunlock.PerCycle)
		if err != nil {
			log.Fatal(err)
		}
		chip, err := dynunlock.Fabricate(design, int64(kb)*13+1)
		if err != nil {
			log.Fatal(err)
		}
		res, err := dynunlock.Unlock(chip, core.Options{EnumerateLimit: 1 << 14})
		if err != nil {
			log.Fatal(err)
		}
		tb.AddRow(kb, res.Rank, fmt.Sprintf("2^%d", res.PredictedLog2),
			len(res.SeedCandidates), res.Iterations,
			core.ContainsSeed(res.SeedCandidates, chip.SecretSeed()),
			res.Elapsed.Seconds())
	}
	tb.Render(os.Stdout)
	fmt.Println("\nAs in the paper: with one capture cycle the attack always returns the")
	fmt.Println("full candidate class; when it grows beyond brute-force reach, a second")
	fmt.Println("capture cycle adds independent constraints (core.AttackMultiCtx).")
}
