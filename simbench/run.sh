#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash simbench/run.sh --workload apache-smt --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes (build
# cache, temporary files, settings and telemetry) and the benchmark's scratch
# state stay under .bench_build in the current directory; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off CGO_ENABLED=0

go -C "$root/simbench" build -o "$out/simbench" .
exec "$out/simbench" "$@"
