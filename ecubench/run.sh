#!/usr/bin/env bash
# Builds the ECU checking benchmark from source and runs it.
#
# Run from the repository root, for example:
#
#   bash ecubench/run.sh --workload state-space --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the traced run's span files all live
# under .bench_build/ in the current directory; nothing is written
# elsewhere. The build fails, and the script exits non-zero without a
# result, when the repository sources next to ecubench/ are missing.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/ecubench" && go build -o "$out/ecubench" .)
exec "$out/ecubench" "$@"
