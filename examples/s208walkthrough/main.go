// The paper's worked example (Figs. 1 and 4, Algorithm 1): an 8-flop
// s208-style circuit locked with three key bits whose gates sit after scan
// flops 1, 2, and 5, obfuscated by a 3-bit LFSR that steps every cycle.
//
// The program prints the locked chain (Fig. 1), the per-cycle LFSR key
// expressions over the seed bits s0..s2, the closed-form scan-in/scan-out
// masks of Algorithm 1, the combinational model netlist (Fig. 4), and then
// runs DynUnlock to recover the seed.
//
//	go run ./examples/s208walkthrough
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"dynunlock/internal/bench"
	"dynunlock/internal/core"
	"dynunlock/internal/gf2"
	"dynunlock/internal/lfsr"
	"dynunlock/internal/lock"
	"dynunlock/internal/oracle"
	"dynunlock/internal/scan"
)

func main() {
	n := bench.S208F()
	fmt.Println("circuit:", n.Stats())

	design, err := lock.Lock(n, lock.Config{KeyBits: 3, Policy: scan.PerCycle})
	if err != nil {
		log.Fatal(err)
	}
	// Fig. 1 placement: key gates after flops 1, 2, and 5.
	design.Chain.Gates = []scan.KeyGate{
		{Link: 1, KeyBit: 0}, {Link: 2, KeyBit: 1}, {Link: 5, KeyBit: 2},
	}

	fmt.Println("\n--- Fig. 1: obfuscated scan chain ---")
	fmt.Println(chainDiagram(design.Chain))

	fmt.Println("--- LFSR key schedule (seed bits s0, s1, s2) ---")
	fmt.Printf("polynomial: width %d, taps %v\n", design.Config.Poly.N, design.Config.Poly.Taps)
	sched, err := lfsr.Unroll(design.Config.Poly, 5)
	if err != nil {
		log.Fatal(err)
	}
	for t := 0; t <= 5; t++ {
		terms := make([]string, 3)
		for b := 0; b < 3; b++ {
			terms[b] = seedExpr(sched.Row(t, b))
		}
		fmt.Printf("cycle %d: k0=%-10s k1=%-10s k2=%s\n", t, terms[0], terms[1], terms[2])
	}

	fmt.Println("\n--- Algorithm 1: closed-form masks ---")
	model, err := core.BuildModel(design, 0)
	if err != nil {
		log.Fatal(err)
	}
	for j := 0; j < design.Chain.Length; j++ {
		fmt.Printf("a'%d = a%d ^ (%s)    b%d = b'%d ^ (%s)\n",
			j, j, seedExpr(model.A.Row(j)), j, j, seedExpr(model.B.Row(j)))
	}
	fmt.Printf("rank[A;B] = %d of %d seed bits -> predicted candidates = 2^%d\n",
		model.Rank(), 3, model.PredictedCandidatesLog2())

	fmt.Println("\n--- Fig. 4: combinational locked model (.bench) ---")
	if err := model.Netlist.WriteBench(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Fabricate with the walkthrough seed 101 and attack.
	seed := gf2.FromBools([]bool{true, false, true})
	chip, err := oracle.New(design, seed, []bool{true, true, false})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- DynUnlock attack ---")
	res, err := core.Attack(chip, core.Options{EnumerateLimit: 8, Log: os.Stdout})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("iterations=%d candidates=%d exact=%v\n", res.Iterations, len(res.SeedCandidates), res.Exact)
	for _, c := range res.SeedCandidates {
		marker := ""
		if c.Equal(seed) {
			marker = "   <- the programmed secret"
		}
		fmt.Printf("  candidate seed %s%s\n", c, marker)
	}
}

// chainDiagram draws the scan chain with its key gates.
func chainDiagram(c scan.Chain) string {
	gate := map[int]int{}
	for _, g := range c.Gates {
		gate[g.Link] = g.KeyBit
	}
	var sb strings.Builder
	sb.WriteString("SI")
	for j := 0; j < c.Length; j++ {
		if kb, ok := gate[j]; ok {
			fmt.Fprintf(&sb, " -(^k%d)-", kb)
		} else {
			sb.WriteString(" ----")
		}
		fmt.Fprintf(&sb, "[FF%d]", j)
	}
	sb.WriteString(" ---- SO")
	return sb.String()
}

// seedExpr renders a GF(2) seed-combination row like "s0^s2", or "0".
func seedExpr(row gf2.Vec) string {
	ones := row.Ones()
	if len(ones) == 0 {
		return "0"
	}
	terms := make([]string, len(ones))
	for i, b := range ones {
		terms[i] = fmt.Sprintf("s%d", b)
	}
	return strings.Join(terms, "^")
}
