#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload fattree1024-serial --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --aa 10
#
# Everything the build and the runs leave behind stays under .bench_build/
# in the checkout: the Go build cache, the binary, the scratch stores and the
# traces. The build fails, and so does this script, when the simulator's own
# sources are not next to perfbench/.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
