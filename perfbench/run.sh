#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the checkout root. The binary, the Go build cache and every
# temporary file stay under the build directory ($CARGO_TARGET_DIR, default
# .bench_build), so nothing outside the checkout is read or written.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOENV=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
