#!/usr/bin/env bash
# Builds tertio_bench from this checkout and runs it.
#
#   bash benchmark/run.sh                      # every workload, one process each
#   bash benchmark/run.sh --workload NAME [--seed N] [--seconds N] [--trace 0|1|FILE] [--smoke]
#
# Build output goes to stderr and into build-bench/ at the repository root;
# stdout carries only the benchmark's own lines, the last of which is the
# JSON result. Exits nonzero when the build fails or any correctness check
# fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"
jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

{
  cmake -S "$root/benchmark" -B "$build"
  cmake --build "$build" --target tertio_bench -j "$jobs"
} >&2

# Address-space layout randomization moves code and heap between runs, which
# adds run-to-run spread that has nothing to do with the code under test.
bench=("$build/tertio_bench")
if setarch "$(uname -m)" -R true 2>/dev/null; then
  bench=(setarch "$(uname -m)" -R "$build/tertio_bench")
fi

for arg in "$@"; do
  case "$arg" in
    --workload|--workload=*) exec "${bench[@]}" "$@" ;;
  esac
done

status=0
for workload in paper_sweep svc_closed svc_backlog full_data_skew; do
  echo "== $workload" >&2
  "${bench[@]}" --workload "$workload" "$@" || status=1
done
exit "$status"
