#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives, then runs the benchmark from
# the repository root. Everything built or written lands in bench/out.
#
#   bench/run.sh                      all four workloads, both passes, one set
#   bench/run.sh -sets 2 -seed 2      two sets held against the bounds of BENCHMARK.json
#   bench/run.sh -quick               smoke sizes, seconds
#   bench/run.sh --workload fr-mid --seed 3 --seconds 20 --trace 0
#                                     one run as the benchmark driver makes it;
#                                     the last line of output is its JSON result
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$here/out"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/frserve" ]; then
	echo "run.sh: $root is not the frfc repository (no go.mod, no cmd/frserve): nothing to measure" >&2
	exit 2
fi

# Keep the toolchain's caches and temporary files inside the checkout, and
# keep it from looking anything up outside it.
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off GOENV=off GOPROXY=off

(cd "$root" && go build -o "$out/frserve" ./cmd/frserve)

# The layer pass binds exported identifiers of internal packages. If a
# refactor has moved them, build without it: the end-to-end metrics still
# print and the per-layer metrics read "missing".
if ! (cd "$here" && go build -tags layers -o "$out/frbench" . 2>"$out/layers-build.log"); then
	echo "run.sh: the layer pass does not build (bench/out/layers-build.log); per-layer metrics will read missing" >&2
	(cd "$here" && go build -o "$out/frbench" .)
fi

cd "$root"
exec "$out/frbench" "$@"
