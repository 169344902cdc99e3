#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

# Go keeps its caches, its settings and its local telemetry under the
# user's config and cache directories; point them into the build
# directory too.
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work-dir "$out/work" --trace-out "$out/traces" "$@"
