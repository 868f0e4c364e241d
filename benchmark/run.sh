#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given. Everything the Go toolchain writes — build cache, module
# path, telemetry — stays under .bench_build in the checkout, and so do the
# benchmark's traces and temporary stores.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS=-mod=readonly \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRYDIR="$build/telemetry" XDG_CONFIG_HOME="$build/config"
(cd "$root/benchmark" && go build -o "$build/darco-benchmark" .)
cd "$root"
exec "$build/darco-benchmark" "$@"
