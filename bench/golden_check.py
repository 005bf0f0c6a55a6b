#!/usr/bin/env python3
"""Checks the paper-figure record against a fresh run of the harnesses.

Runs the figure, table, ablation, fault and service harnesses of bench/ and
compares every run's (label, sim_seconds) pair with the committed record:

  python3 bench/golden_check.py --bench-dir build/bench --record BENCH_joins.json

The harnesses write their records into a temporary file (TERTIO_BENCH_JSON),
never into the committed one. Host timings (wall_seconds, threads) and the
free-form metrics are not compared; simulated seconds are deterministic, so
the pairs must match exactly. bench_micro_substrates (host timings only) is
not run. Exits 1 on any difference, naming the first ones.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

HARNESSES = (
    "bench_table3_ctt_gh",
    "bench_fig1_analytical",
    "bench_fig2_analytical",
    "bench_fig3_analytical",
    "bench_fig4_disk_utilization",
    "bench_fig5_disk_space",
    "bench_fig6_disk_requirement",
    "bench_fig7_disk_traffic",
    "bench_fig8_response_time",
    "bench_fig9_join_overhead",
    "bench_fig10_slow_tape",
    "bench_fig11_fast_tape",
    "bench_ablations",
    "bench_fault_degradation",
    "bench_query_service",
)
# The one record in the file that no harness above writes.
NOT_RUN = {"micro_substrates"}
# Sweep workers per harness; simulated results do not depend on it.
THREADS = 4
SHOWN = 10


def runs_by_bench(path: pathlib.Path) -> dict[str, list[tuple[str, float]]]:
    benches = json.loads(path.read_text())["benches"]
    return {b["name"]: [(r["label"], r["sim_seconds"]) for r in b["runs"]] for b in benches}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", required=True, type=pathlib.Path,
                        help="directory holding the bench_* harness binaries")
    parser.add_argument("--record", required=True, type=pathlib.Path,
                        help="the committed BENCH_joins.json")
    args = parser.parse_args()

    want = runs_by_bench(args.record)
    with tempfile.TemporaryDirectory() as tmp:
        fresh_path = pathlib.Path(tmp) / "bench_joins.json"
        env = dict(os.environ, TERTIO_BENCH_JSON=str(fresh_path))
        for harness in HARNESSES:
            binary = args.bench_dir / harness
            done = subprocess.run([str(binary), f"--threads={THREADS}"], env=env, cwd=tmp,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"FAIL: {harness} exited {done.returncode}\n{done.stderr}")
                return 1
        got = runs_by_bench(fresh_path)

    failed = False
    expected_names = set(want) - NOT_RUN
    if set(got) != expected_names:
        print(f"FAIL: harness records {sorted(set(got))} != recorded {sorted(expected_names)}")
        failed = True
    total = 0
    for name in sorted(expected_names & set(got)):
        total += len(want[name])
        if got[name] == want[name]:
            continue
        failed = True
        print(f"FAIL: {name}: {len(got[name])} runs, {len(want[name])} recorded")
        diffs = [(w, g) for w, g in zip(want[name], got[name]) if w != g]
        for w, g in diffs[:SHOWN]:
            print(f"  recorded {w[0]!r} {w[1]!r}, ran {g[0]!r} {g[1]!r}")
        if len(diffs) > SHOWN:
            print(f"  ... {len(diffs) - SHOWN} more")
    if failed:
        print(f"The figure record {args.record} no longer matches the harnesses. A change that "
              "moves a simulated second regenerates it and says why in CHANGES.md.")
        return 1
    print(f"golden: {total} runs of {len(expected_names)} harnesses match {args.record.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
