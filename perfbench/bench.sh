#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one
# workload:
#
#   bash perfbench/bench.sh --workload paper-all --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything it writes (the Go
# build cache, the binary, service journals, span dumps) goes under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout. The
# last line of standard output is the result JSON.
set -euo pipefail

root=$(pwd)
work=${CARGO_TARGET_DIR:-.bench_build}
case $work in
/*) ;;
*) work=$root/$work ;;
esac
mkdir -p "$work/tmp"

# Keep the toolchain offline and inside the checkout.
export GOCACHE=$work/gocache GOPATH=$work/gopath GOTMPDIR=$work/tmp TMPDIR=$work/tmp
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOENV=off GOWORK=off

# The commit measured, where the checkout is a git work tree of its own.
BENCH_COMMIT=
if [ -e "$root/.git" ]; then
	BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi
export BENCH_COMMIT

go build -C perfbench -o "$work/perfbench" .
exec "$work/perfbench" --work-dir "$work" "$@"
