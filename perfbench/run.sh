#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed through (-workload, -seed, -seconds, -trace).
# Run from the repository root:
#
#   bash perfbench/run.sh --workload pingpong --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and binary live under .bench_build
# in the checkout, so nothing outside it is written. A checkout without
# the repository's sources fails the build and exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local

if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
mkdir -p "$out/home"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
