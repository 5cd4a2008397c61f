#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash perfbench/run.sh --workload funnel --seed 1 --seconds 32 --trace 0
#
# Every file it writes (build cache, binary, WAL directories, spans) goes
# under .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/run" "$@"
