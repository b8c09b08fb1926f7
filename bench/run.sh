#!/usr/bin/env bash
# Builds the pka benchmark program and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload acquire_dense --seed 1 --seconds 25 --trace 0
#
# Every build product, Go cache and scratch file goes under .bench_build/ in
# the repository root, so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/bin/pkabench" .)
exec "$out/bin/pkabench" -root "$root" -build-dir "$out" "$@"
