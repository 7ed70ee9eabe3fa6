#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload point-1k --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, spans) stays
# under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$here" && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" --trace-dir "$build/traces" "$@"
