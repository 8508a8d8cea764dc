#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload onboard --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and per-run records stay inside the
# checkout, under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
rev=$(git -C "$root" describe --always --dirty 2>/dev/null || echo "not a git checkout")
exec "$build/perfbench" --rev "$rev" --out "$build/results" "$@"
