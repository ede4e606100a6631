#!/usr/bin/env bash
# Builds enmc-serve, enmc-shard and the benchmark from this checkout,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload classify-268k --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/home"
build() {
  HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOENV=off \
    GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
    GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0 go build "$@" >&2
}
build -o "$out/bin/" ./cmd/enmc-serve ./cmd/enmc-shard
(cd perfbench && build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
