#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repo root:
#
#   bash perfbench/run.sh --workload cold-study --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the current directory: the Go build cache, the binary, and the
# per-seed records the repeat check compares against.
set -euo pipefail

root="$(pwd)"
bench="$root/perfbench"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

# Fall back to the official Go install location when go is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$bench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -state "$out/state" "$@"
