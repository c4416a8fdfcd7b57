#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload interactive-w64 --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the build's temporary files stay under
# .bench_build/ in the working directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .) >&2
exec "$out/perfbench-bin" "$@"
