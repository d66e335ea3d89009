#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments:
#
#   bash bench/run.sh -workload tcas-plain -seed 1 -seconds 10 -trace 0
#
# Run it from the repository root. The build cache, the binary and every
# temporary file go under .bench_build/ in the current directory, and
# nothing is read from or written to the user's home directory. The build
# fails, and the script exits non-zero without running anything, when the
# repository source is missing.
set -euo pipefail

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
work="$PWD/.bench_build"
mkdir -p "$work/tmp"

export GOCACHE="$work/gocache"
export GOPATH="$work/gopath"
export GOTMPDIR="$work/tmp"
export TMPDIR="$work/tmp"
export XDG_CONFIG_HOME="$work/config"
export XDG_CACHE_HOME="$work/cache"
export GOENV=off
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$bench" && go build -o "$work/symbench" .)
exec "$work/symbench" "$@"
