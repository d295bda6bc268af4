#!/usr/bin/env bash
# Builds offtarget, genomeindex and the benchmark from source into
# .bench_build/, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload cli-genome --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build and scratch file stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
[ -f "$root/go.mod" ] || { echo "run.sh: no go.mod in $root; run from the repository root" >&2; exit 2; }

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/home" "$build/work"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"

go build -o "$build/bin/" ./cmd/offtarget ./cmd/genomeindex >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" -work "$build/work" "$@"
