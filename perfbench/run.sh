#!/bin/sh
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#	sh perfbench/run.sh --workload http-zipf --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, the Go build
# cache included, lives under .bench_build/ in the checkout, so nothing
# is shared across checkouts and nothing is written outside this one.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
