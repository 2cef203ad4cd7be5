#!/usr/bin/env bash
# Builds the serving benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 12 --trace 0
#
# Build products, the Go build cache, the go command's own configuration
# and telemetry, and the run outputs all live under .bench_build/ in the
# checkout, so nothing is written outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# The commit is recorded in each result when the checkout is a git work
# tree; git is kept from searching above the checkout.
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)

go -C perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" -commit "$commit" "$@"
