#!/usr/bin/env bash
# Builds lightpc-benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash cmd/lightpc-benchmark/run.sh --workload oc-pmem --seed 1 --seconds 15 --trace 0
#
# The build cache, temporary files, the binary, traces and profiles all stay
# under .bench_build/ at the repository root. The module has no external
# dependencies, so the build never needs the network; GOPROXY=off makes sure
# it never tries.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "lightpc-benchmark: no simulator source at $root (need go.mod and internal/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/lightpc-benchmark" .)
cd "$root"
exec "$out/lightpc-benchmark" -outdir "$out" "$@"
