// Defense-side demo: the test authentication scheme of the paper's Fig. 2,
// and the Table I evolution — every scan-locking family falling to the
// attack that historically broke it, reproduced live.
//
//	go run ./examples/defenses
package main

import (
	"fmt"
	"log"
	"os"

	"dynunlock"
	"dynunlock/internal/core"
	"dynunlock/internal/report"
)

func main() {
	// A mid-size EFF-Dyn locked chip.
	design, err := dynunlock.LockBenchmark("s5378", 16, dynunlock.PerCycle, 8)
	if err != nil {
		log.Fatal(err)
	}
	chip, err := dynunlock.Fabricate(design, 99)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("--- Fig. 2: test authentication scheme ---")
	n := design.Chain.Length
	scanIn := make([]bool, n)
	scanIn[0], scanIn[3] = true, true
	pi := make([]bool, design.View.NumPI)

	// A mismatching test key leaves the PRNG in control: responses are
	// scrambled dynamically, and the same session after reset reproduces
	// (the PRNG restarts from the secret seed).
	wrongKey := make([]bool, design.Config.KeyBits)
	chip.Reset()
	outWrong1, _ := chip.Session(wrongKey, scanIn, pi)
	chip.Reset()
	outWrong2, _ := chip.Session(wrongKey, scanIn, pi)
	fmt.Printf("mismatched test key: scan-out %s\n", bits(outWrong1))
	fmt.Printf("after reset, again:  scan-out %s (reproducible: %v)\n", bits(outWrong2), eq(outWrong1, outWrong2))

	// The trusted tester knows SK: with a matching key the gates carry a
	// known static key, so the tester can compensate deterministically.
	fmt.Println("(a matching secret test key would pin the gates to a known static key — trusted-tester path)")

	fmt.Println("\n--- Table I: evolution of scan locking, attacked live ---")
	tb := report.New("", "Defense", "Type", "Attack", "Broken", "Candidates", "Iterations")
	attackRow := func(label, typ, attackName string, policy dynunlock.Policy) {
		d, err := dynunlock.LockBenchmark("s5378", 16, policy, 8)
		if err != nil {
			log.Fatal(err)
		}
		c, err := dynunlock.Fabricate(d, 7)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.Attack(c, core.Options{EnumerateLimit: 64})
		if err != nil {
			log.Fatal(err)
		}
		broken := core.ContainsSeed(res.SeedCandidates, c.SecretSeed())
		cands, iters := len(res.SeedCandidates), res.Iterations
		tb.AddRow(label, typ, attackName, broken, cands, iters)
	}
	attackRow("EFF (Jan 2018)", "Static", "ScanSAT", dynunlock.Static)
	attackRow("DOS (Sept 2018, p=1)", "Dynamic", "DynUnlock", dynunlock.PerPattern)
	attackRow("EFF-Dyn (May 2019)", "Dynamic", "DynUnlock", dynunlock.PerCycle)
	tb.Render(os.Stdout)

	fmt.Println("\nThe per-cycle dynamic key (EFF-Dyn) defeats the classic SAT attack, but")
	fmt.Println("DynUnlock's scan-session unrolling reduces it to a combinational problem.")
}

func bits(bs []bool) string {
	out := make([]byte, len(bs))
	for i, b := range bs {
		if b {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	if len(out) > 48 {
		return string(out[:45]) + "..."
	}
	return string(out)
}

func eq(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
