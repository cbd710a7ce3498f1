#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to it.
# Everything a build or a run writes stays under .bench_build in the
# checkout: the Go build cache, the binaries, the inputs and the outputs.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build"
mkdir -p "$work/bin"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$work/bin/bench" .)
cd "$root"
exec "$work/bin/bench" "$@"
