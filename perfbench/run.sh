#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it from the
# checkout root. Everything the build writes (binary, Go build cache,
# Go config) stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload kmeans-gpu --seed 7 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
