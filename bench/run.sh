#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from anywhere; it works from the root of the checkout that holds it.
#
# Everything the Go toolchain writes (build cache, module cache) is kept
# under .bench_build/ in the checkout, so a run touches nothing outside it.
# The first build in a checkout compiles the standard library too (~35 s
# here); later ones are the toolchain's up-to-date check.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
mkdir -p .bench_build/bin
(cd bench && go build -o "$root/.bench_build/bin/bench" .)
exec .bench_build/bin/bench "$@"
