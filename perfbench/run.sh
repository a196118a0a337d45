#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-vgg16 --seed 1 --seconds 36 --trace 0
#
# Run it from the root of the repository. Everything it builds or
# writes stays under .bench_build/ there (Go build cache included).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out" "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTMPDIR="$root/.bench_build/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
# The commit is stamped from git when the checkout has it; a git that
# cannot be used there must not stop the build.
(cd "$root/perfbench" && { go build -o "$out/perfbench" . 2>/dev/null || go build -buildvcs=false -o "$out/perfbench" .; })
exec "$out/perfbench" "$@"
