#!/usr/bin/env bash
# Builds the benchmark runner from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload spec-feasible --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 1
#
# Run it from the root of the checkout. Every build artefact (binary, Go
# build cache, temporary files, spans, profiles) stays under .bench_build/
# in that root.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOENV=off
export GOFLAGS=

# Build output goes to stderr: the last line of stdout is the result.
go build -C "$here" -o "$build/perfbench" . 1>&2

exec "$build/perfbench" "$@"
