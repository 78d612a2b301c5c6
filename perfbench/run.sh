#!/usr/bin/env bash
# Builds the benchmark and the mlserved daemon from this checkout, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mesh-kway-csrb --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run artifacts stay in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/mlserved" mlpart/cmd/mlserved) >&2
exec "$out/perfbench" -mlserved "$out/mlserved" -workdir "$out" "$@"
