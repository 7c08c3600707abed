#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments. Build output, the Go build cache and
# the toolchain's own config stay under .bench_build/ in the checkout, and
# the build never reaches for the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
