#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload tcp-warm --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .perfbench/ in the working
# directory (the Go build cache included), so the benchmark reads and writes
# nothing outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOPROXY=off GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out .perfbench "$@"
