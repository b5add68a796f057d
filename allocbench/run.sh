#!/usr/bin/env bash
# Builds the allocation-pipeline benchmark from the checkout's sources and
# runs it. Run from the repository root; arguments pass through to the
# benchmark (--workload, --seed, --seconds, --trace).
#
# Everything the build and the run write stays inside the checkout: the
# binary, the Go build cache, the compiler's temporary files and the
# traces go to $CARGO_TARGET_DIR (default .bench_build). Nothing is
# downloaded: the benchmark module needs only the repository's own module
# and the standard library.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export CARGO_TARGET_DIR="$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$(dirname "$0")" && go build -o "$out/allocbench" .)
exec "$out/allocbench" "$@"
