#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload hub-serve --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and everything a run writes stay under
# .bench_build/ in the checkout. Without the repository's go.mod next to
# e2ebench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" --scratch "$out" "$@"
