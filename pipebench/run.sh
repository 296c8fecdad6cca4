#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it with the given
# arguments, e.g.:
#   bash pipebench/run.sh --workload table1 --seed 1 --seconds 45 --trace 0
# Build outputs and the Go build cache stay in .bench_build at the root
# of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/pipebench" .) >&2
exec "$out/pipebench" "$@"
