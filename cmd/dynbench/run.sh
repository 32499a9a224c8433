#!/usr/bin/env bash
# Builds cmd/dynbench from this checkout and runs it with the given
# arguments. Run it from the repository root, e.g.
#
#   bash cmd/dynbench/run.sh --workload paper128 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# .bench_build/ in the checkout. The build fails, and so does the run,
# when the repository around cmd/dynbench is missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOFLAGS= GOWORK=off \
	GOPROXY=off GOTOOLCHAIN=local TMPDIR="$out/tmp"
(cd "$root/cmd/dynbench" && go build -o "$out/dynbench" .)
exec "$out/dynbench" "$@"
