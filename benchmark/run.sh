#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the root of the repository:
#
#   bash benchmark/run.sh --workload shared-arena --seed 7 --seconds 20 --trace 0
#
# Build output, the Go build cache, GOPATH and the go command's
# user-config directory (telemetry counters) stay under .bench_build/ in
# the checkout; nothing is downloaded. The build fails, and so does this
# script, when the simulator's sources are not next to the benchmark.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
(cd "$bench" && go build -o "$out/xdealbench" .) >&2
exec "$out/xdealbench" "$@"
