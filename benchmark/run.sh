#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (Go caches included, so nothing is written outside the checkout)
# and runs it with the arguments given. BENCHMARK.json's command is
# `bash benchmark/run.sh`; see README.md for the flags.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
cd "$here"
go build -o "$build/micbenchmark" . >&2
exec "$build/micbenchmark" "$@"
