#!/usr/bin/env bash
# Builds the benchmark harness from source inside the checkout and runs
# it; every argument goes to the harness (see README.md). Nothing is
# read or written outside the checkout: the Go build and module caches
# live under .bench_build with the binaries.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOTOOLCHAIN=local GOWORK=off
# the harness is a module of its own that replaces `repro` with the
# checkout, so this fails, and nothing runs, where the checkout is absent
(cd "$here" && go build -o "$build/t10bench" .)
cd "$root"
exec "$build/t10bench" "$@"
