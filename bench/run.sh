#!/usr/bin/env bash
# The driver's entry point: bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
# (or any other flag set of the bench command; see main.go).
#
# Builds the benchmark from the checkout's source into .bench_build/ at
# the checkout's root and runs it from bench/. The Go build cache and
# temporary files are kept inside the checkout too, so a run reads and
# writes nothing outside it. In a directory that lacks the repository's
# own go.mod the build fails and this script exits non-zero without a
# result line.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build_dir="$(dirname "$bench_dir")/.bench_build"
mkdir -p "$build_dir/gocache" "$build_dir/gotmp"
export GOCACHE="$build_dir/gocache" GOTMPDIR="$build_dir/gotmp" GOTOOLCHAIN=local
cd "$bench_dir"
go build -o "$build_dir/dynplanbench" .
# Pin the benchmark, and with it the obsd it spawns, to one CPU. Client
# and server each run one P; left on two vCPUs of a shared box, every
# request waits for the hypervisor to schedule the other vCPU, and
# http_service's op_p50_us spread between runs was 58 % against 10 %
# pinned (README, "Why these statistics").
if command -v taskset >/dev/null; then
	exec taskset -c "$(($(nproc) - 1))" "$build_dir/dynplanbench" "$@"
fi
exec "$build_dir/dynplanbench" "$@"
