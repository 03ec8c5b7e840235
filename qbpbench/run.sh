#!/usr/bin/env bash
# Builds the benchmark and the qbpartd daemon from this checkout's sources,
# then runs one workload. Run from the repository root:
#
#   bash qbpbench/run.sh --workload paper-tables --seed 1 --seconds 25 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/qbpbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

cd "$root/qbpbench"
go build -o "$out/qbpbench" .
go build -o "$out/qbpartd" repro/cmd/qbpartd
cd "$root"

exec "$out/qbpbench" --qbpartd "$out/qbpartd" --spans "$out/spans.jsonl" "$@"
