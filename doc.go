// Package dynunlock is a from-scratch reproduction of "DynUnlock: Unlocking
// Scan Chains Obfuscated using Dynamic Keys" (Limaye & Sinanoglu, DATE
// 2020): a SAT-based attack that breaks dynamic scan locking defenses such
// as EFF-Dyn by unrolling the obfuscated scan session into a combinational
// locked circuit whose key inputs are the PRNG seed bits.
//
// The module is self-contained (stdlib only) and builds every substrate
// the attack needs:
//
//   - internal/sat      — a CDCL SAT solver (MiniSat lineage)
//   - internal/netlist  — gate-level circuits + ISCAS-89 .bench I/O
//   - internal/sim      — bit-parallel logic simulation
//   - internal/gf2      — GF(2) linear algebra
//   - internal/lfsr     — concrete + symbolic LFSRs
//   - internal/scan     — scan-chain geometry and cycle timing
//   - internal/lock     — EFF / DOS / EFF-Dyn scan locking
//   - internal/oracle   — the attacker-owned chip (Fig. 2 authentication)
//   - internal/aig      — and-inverter graphs compiled from netlists
//   - internal/encode   — AIG encoding with native XOR rows, and miters
//   - internal/satattack— the classic oracle-guided SAT attack
//   - internal/core     — DynUnlock itself (Algorithm 1 + attack loop);
//     a static lock is the same model with the identity key schedule, so
//     it also plays the ScanSAT baseline
//
// This root package is the high-level facade used by the command-line
// tools, the examples, and the benchmark harness: it locks a benchmark
// circuit, fabricates a chip with secret keys, runs the attack, and
// aggregates multi-trial experiment statistics in the shape of the paper's
// Tables I–III.
package dynunlock
