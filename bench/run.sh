#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   bash bench/run.sh --workload lattice-deep --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ at the root of the checkout. The benchmark is its
# own Go module that points at the parent directory for the pricing library,
# so outside a full checkout the build fails and the script exits non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/tmp"
export GOFLAGS=""
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$out/amop-bench" .)
exec "$out/amop-bench" "$@"
