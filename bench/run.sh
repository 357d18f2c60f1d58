#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run write stays inside the checkout: the Go build cache, module
# cache and temp dir go under .bench_build/, results under bench/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/spacebench" .)
exec "$build/spacebench" -out "$here/out" "$@"
