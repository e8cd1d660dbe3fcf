#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
# Usage, from the repository root:
#   bash perfbench/run.sh --workload hot-exec --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write lands under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binary, the durability directories and the span dump.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are required)" >&2
	exit 2
fi
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/home" "$build/tmp" "$build/perfbench"

# Keep the toolchain's caches, config and temporary files inside the build
# directory, and never let it reach for a different toolchain.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS= GOPROXY=off
export CGO_ENABLED=0

bin="$build/perfbench/perfbench"
if ! (cd perfbench && go build -o "$bin" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 3
fi
exec "$bin" --work "$build/perfbench" "$@"
