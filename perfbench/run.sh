#!/usr/bin/env bash
# Builds the OWL benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload triage-full --seed 1 --seconds 30 --trace 0
#
# Every build product, cache and scratch file goes under .bench_build/ at
# the root of the checkout, so the run touches nothing outside it. The
# build fails (and nothing is printed on stdout) when the checkout does
# not hold the repository's own packages.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
go -C "$root/perfbench" build -o "$out/owlbench" . >&2
cd "$root"
exec "$out/owlbench" "$@"
