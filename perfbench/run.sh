#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it.
#
#   bash perfbench/run.sh --workload <live-kernels|serve-kernels|serve-findings> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/perfbench" ]; then
	echo "run.sh: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/avd-perfbench" .) >&2

commit=$(git --git-dir="$root/.git" rev-parse HEAD 2>/dev/null || true)
exec env AVD_PERFBENCH_COMMIT="$commit" "$out/avd-perfbench" "$@"
