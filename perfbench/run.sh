#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root:
#   bash perfbench/run.sh --workload house-locate --seed 1 --seconds 15 --trace 0
# Everything it builds, caches and writes stays under .bench_build.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out" "$@"
