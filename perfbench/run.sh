#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload ledger --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# every other file the build writes stay under .bench_build there.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a scoopqs checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
