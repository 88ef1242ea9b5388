#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one
# workload:
#
#   bash perfbench/run.sh --workload ingest|serve|scan --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache, temporary stores and trace dumps all
# live under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
