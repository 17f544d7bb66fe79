#!/usr/bin/env bash
# Builds the benchmark and the ldmo-serve binary it drives from the sources of
# this checkout, then runs the benchmark with the given arguments. Run it from
# the root of the checkout:
#
#   bash bench/run.sh --workload cells-4nm --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh --compare bench/results/set1.json bench/results/set2.json
#
# Everything the build and the run leave behind goes to .bench_build/, the Go
# build cache included, so nothing outside the checkout is read or written
# beyond the Go toolchain itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/go-build" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS=
mkdir -p "$GOTMPDIR"

(cd "$root/bench" && go build -o "$out/bench" .)
go build -o "$out/ldmo-serve" ./cmd/ldmo-serve

exec "$out/bench" -serve-bin "$out/ldmo-serve" -work "$out" "$@"
