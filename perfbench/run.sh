#!/usr/bin/env bash
# Builds the programs under test and the benchmark from source, then
# runs one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload battery --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and run scratch files stay under
# .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dsafig" || ! -d "$root/cmd/dsasim" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/dsafig and cmd/dsasim not found in $root)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off

go build -o "$build/bin/" ./cmd/dsafig ./cmd/dsasim >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" "$@"
