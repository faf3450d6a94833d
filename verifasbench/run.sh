#!/usr/bin/env bash
# Builds the benchmark harness and the verifasd daemon from this source
# tree, then runs one workload of the benchmark. Run it from the
# repository root:
#
#   bash verifasbench/run.sh --workload real|synthetic|service --seed N --seconds S --trace 0|1
#
# Everything it builds or writes stays under .bench_build/ in the
# repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off
# envinfo asks git for the revision; keep it from searching above the tree.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

(cd "$root/verifasbench" &&
	go build -o "$out/bench" ./cmd/bench &&
	go build -o "$out/verifasd" verifas/cmd/verifasd) >&2

exec "$out/bench" --daemon "$out/verifasd" --work-dir "$out" "$@"
