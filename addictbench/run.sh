#!/usr/bin/env bash
# Builds the benchmark and the addict-serve binary from this checkout, then
# runs one workload. Run it from the repository root:
#
#   bash addictbench/run.sh --workload cold-sweep --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout
# (Go build cache included), so it needs no network and no home directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/addict-serve" || ! -f "$root/addictbench/go.mod" ]]; then
	echo "addictbench: run from the repository root (need go.mod, cmd/addict-serve and addictbench/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

go build -o "$build/bin/addict-serve" ./cmd/addict-serve
(cd "$root/addictbench" && go build -o "$build/bin/addictbench" .)
exec "$build/bin/addictbench" --serve-bin "$build/bin/addict-serve" --work-dir "$build/run" "$@"
