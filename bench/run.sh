#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout, keeping Go's
# build cache and the go command's telemetry counters (which live under
# the user's config directory) inside the checkout (.bench_build/) so that
# nothing is written outside it. All arguments go to the program:
#
#   bash bench/run.sh --workload fleet_saturated --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export GOCACHE="$root/.bench_build/go-cache"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOWORK=off
mkdir -p "$root/.bench_build"
go build -C "$here" -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
