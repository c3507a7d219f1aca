#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# every temporary file stay under .bench_build/ in that root. Without the
# repository around it (no go.mod next to perfbench/) the build fails and
# the script exits non-zero before printing anything.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (need ./go.mod and ./perfbench)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Keep the toolchain offline and its caches and scratch files inside the
# checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
