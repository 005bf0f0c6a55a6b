#!/usr/bin/env python3
"""Checks the paper-figure record against a fresh run of the harnesses.

Runs the figure, table, ablation, fault and service harnesses of bench/ and
compares every run's (label, sim_seconds) pair and every metric with the
committed record, then applies the query-service gates to the fresh metrics:

  python3 bench/golden_check.py --bench-dir build/bench --record BENCH_joins.json

With --write it regenerates the record from the same fresh run instead of
comparing (the gates still apply):

  python3 bench/golden_check.py --bench-dir build/bench --record BENCH_joins.json --write

Each harness prints its record as one JSON line, the last line it writes to
stdout, and writes no file; this script is the record's only reader and
writer. The record keeps only simulated content: each harness's name, runs
and metrics. Host timings (wall_seconds, threads) are dropped, and
bench_micro_substrates (host timings only) is not run. Simulated results are
deterministic, so everything kept must match exactly. Exits 1 on any
difference or failed gate, naming the first ones.
"""

import argparse
import json
import pathlib
import subprocess
import sys

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
# Sweep workers per harness; simulated results do not depend on it.
THREADS = 4
SHOWN = 10
# Metrics the query-service gates read; a record without them fails.
SERVICE_KEYS = ["zipf_tape_block_drop", "zipf_cache_mb_0_tape_blocks_read"] + [
    f"svc_elevator_c{cap}_{key}"
    for cap in (1, 2, 4)
    for key in ("makespan_seconds", "p50_seconds", "p99_seconds", "wait_p50_seconds",
                "wait_p99_seconds", "robot_exchanges")
]


def entry(bench: dict) -> dict:
    """One harness record as compared: {"runs": [(label, s)], "metrics": {},
    "host": [names of its other fields, such as the harness's wall_seconds]}."""
    return {"runs": [(r["label"], r["sim_seconds"]) for r in bench["runs"]],
            "metrics": bench["metrics"],
            "host": sorted(set(bench) - {"name", "runs", "metrics"})}


def load(path: pathlib.Path) -> dict[str, dict]:
    """The committed record at `path`, by harness name."""
    return {b["name"]: entry(b) for b in json.loads(path.read_text())["benches"]}


def run(binary: pathlib.Path) -> tuple[str, dict] | str:
    """Runs one harness: its (name, entry), or why it failed."""
    done = subprocess.run([str(binary), f"--threads={THREADS}"], capture_output=True,
                          text=True)
    if done.returncode != 0:
        return f"{binary.name} exited {done.returncode}\n{done.stderr}"
    lines = done.stdout.splitlines()
    try:
        bench = json.loads(lines[-1])
    except (IndexError, ValueError):
        return f"{binary.name}: the last stdout line is not a JSON record"
    return bench["name"], entry(bench)


def number(value) -> str:
    """`value` as the harnesses print it (%.6g; null for a failed run)."""
    return "null" if value is None else "%.6g" % value


def write(path: pathlib.Path, records: dict[str, dict], order: list[str]) -> None:
    """Writes `records` in the committed layout, without host timings."""
    blocks = []
    for name in order:
        runs = records[name]["runs"]
        metrics = records[name]["metrics"]
        text = f'{{ "name": {json.dumps(name)},\n      "runs": ['
        text += ",".join(f'\n        {{ "label": {json.dumps(label)}, '
                         f'"sim_seconds": {number(s)} }}' for label, s in runs)
        text += "\n      ],\n" if runs else "],\n"
        text += '      "metrics": {'
        text += ",".join(f"\n        {json.dumps(k)}: {number(v)}" for k, v in metrics.items())
        text += "\n      } }" if metrics else "} }"
        blocks.append("    " + text)
    path.write_text('{\n  "benches": [\n' + ",\n".join(blocks) + "\n  ]\n}\n")


def service_gates(metrics: dict) -> list[str]:
    """The query-service claims, checked on the fresh metrics."""
    missing = [key for key in SERVICE_KEYS if key not in metrics]
    if missing:
        return [f"bench_query_service did not record {', '.join(missing)}"]
    failures = []
    # Concurrent elevator dispatch beats the serial FIFO baseline.
    fifo_c1 = metrics["svc_fifo_c1_makespan_seconds"]
    elev_c4 = metrics["svc_elevator_c4_makespan_seconds"]
    print(f"service gates: fifo@c1 makespan {fifo_c1:.0f}s, elevator@c4 {elev_c4:.0f}s; "
          f"robot trips fifo@c1 {metrics['svc_fifo_c1_robot_exchanges']:.0f}, "
          f"elevator@c1 {metrics['svc_elevator_c1_robot_exchanges']:.0f}")
    if elev_c4 >= fifo_c1:
        failures.append(f"elevator@c4 makespan {elev_c4:.0f}s does not beat serial fifo "
                        f"{fifo_c1:.0f}s")
    # The serial elevator makes no more robot trips than serial FIFO.
    robot_fifo = metrics["svc_fifo_c1_robot_exchanges"]
    robot_elev = metrics["svc_elevator_c1_robot_exchanges"]
    if robot_elev > robot_fifo:
        failures.append(f"elevator@c1 made {robot_elev:.0f} robot trips, more than fifo's "
                        f"{robot_fifo:.0f}")
    return failures


def differences(name: str, want: dict, got: dict) -> list[str]:
    """How harness `name`'s fresh record differs from `want`, naming the first ones."""
    lines = []
    if want["host"]:
        # The committed record keeps no host timings (--write drops them).
        lines.append(f"FAIL: {name}: the record holds host fields {', '.join(want['host'])}")
    if got["runs"] != want["runs"]:
        diffs = [f"  recorded {w[0]!r} {w[1]!r}, ran {g[0]!r} {g[1]!r}"
                 for w, g in zip(want["runs"], got["runs"]) if w != g]
        lines.append(f"FAIL: {name}: {len(got['runs'])} runs, {len(want['runs'])} recorded")
        lines += diffs[:SHOWN] + ([f"  ... {len(diffs) - SHOWN} more"] if len(diffs) > SHOWN else [])
    if got["metrics"] != want["metrics"]:
        recorded, ran = want["metrics"], got["metrics"]
        diffs = [f"  {k}: recorded {recorded.get(k, 'nothing')}, ran {ran.get(k, 'nothing')}"
                 for k in {**recorded, **ran} if recorded.get(k) != ran.get(k)]
        lines.append(f"FAIL: {name}: {len(diffs)} of {len(recorded)} recorded metrics differ")
        lines += diffs[:SHOWN] + ([f"  ... {len(diffs) - SHOWN} more"] if len(diffs) > SHOWN else [])
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", required=True, type=pathlib.Path,
                        help="directory holding the bench_* harness binaries")
    parser.add_argument("--record", required=True, type=pathlib.Path,
                        help="the committed BENCH_joins.json")
    parser.add_argument("--write", action="store_true",
                        help="regenerate the record instead of comparing with it")
    args = parser.parse_args()

    got = {}
    for harness in HARNESSES:
        result = run(args.bench_dir.resolve() / harness)
        if isinstance(result, str):
            print(f"FAIL: {result}")
            return 1
        got[result[0]] = result[1]

    failures = service_gates(got.get("bench_query_service", {"metrics": {}})["metrics"])
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1

    if args.write:
        # Keep the committed order so a regenerated record diffs by content.
        kept = list(load(args.record)) if args.record.exists() else []
        order = [name for name in kept if name in got] + [name for name in got if name not in kept]
        write(args.record, got, order)
        print(f"golden: wrote {len(got)} harness records to {args.record}")
        return 0

    want = load(args.record)
    if set(got) != set(want):
        print(f"FAIL: harness records {sorted(got)} != recorded {sorted(want)}")
        return 1
    lines = []
    for name in sorted(want):
        lines += differences(name, want[name], got[name])
    if lines:
        print("\n".join(lines))
        print(f"The figure record {args.record} no longer matches the harnesses. A change that "
              "moves a simulated result regenerates it (--write) and says why in CHANGES.md.")
        return 1
    runs = sum(len(r["runs"]) for r in want.values())
    metrics = sum(len(r["metrics"]) for r in want.values())
    print(f"golden: {runs} runs and {metrics} metrics of {len(want)} harnesses match "
          f"{args.record.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
