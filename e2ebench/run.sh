#!/usr/bin/env bash
# Builds the pulse server and the benchmark (e2ebench) from the checkout's
# sources, then runs the benchmark. Every build and run artifact (Go build
# cache, binaries, traces) stays under .bench_build in the checkout.
#
#   bash e2ebench/run.sh --workload warm_hits --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gotmp" "${build}/gopath" "${build}/xdg-config" "${build}/xdg-cache"
export GOCACHE="${build}/gocache" GOTMPDIR="${build}/gotmp" GOPATH="${build}/gopath"
export XDG_CONFIG_HOME="${build}/xdg-config" XDG_CACHE_HOME="${build}/xdg-cache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go build -o "${build}/accqoc-server" ./cmd/accqoc-server
(cd e2ebench && go build -o "${build}/e2ebench" .)
exec "${build}/e2ebench" -server "${build}/accqoc-server" -out "${build}" "$@"
