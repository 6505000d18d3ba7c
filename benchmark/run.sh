#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# arguments given:
#
#   bash benchmark/run.sh --workload serve_read --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. Everything it writes — Go's build
# cache and work directory, the binary, WAL scratch directories, trace
# files — goes under .bench_build/ there, which .gitignore names. In a
# directory that holds only BENCHMARK.json and benchmark/ the build fails
# (the module it replaces is missing) and the script exits non-zero
# without a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# Go's own state stays inside the checkout, and nothing is fetched: the
# benchmark and the module it measures import the standard library only.
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$build/benchmark" .) >&2
cd "$root"
exec "$build/benchmark" "$@"
