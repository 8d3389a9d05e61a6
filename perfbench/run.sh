#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ under the current
# directory (the repository root) and runs it with the given arguments.
# The Go build cache and temporary files stay in .bench_build/ too.
#
#   bash perfbench/run.sh --workload fig6-stream --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=-mod=readonly GO111MODULE=on CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
