#!/usr/bin/env bash
# Builds the served-cell benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash servebench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and run artefact (Go build
# cache, binary, temporary WAL and key files, trace dumps) stays under
# .bench_build in the current directory. A checkout without the repository's
# sources fails the build, so the script exits non-zero without a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
