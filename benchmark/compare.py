#!/usr/bin/env python3
"""Compare two sets of tertio_bench results (standard library only).

Usage:
    python3 benchmark/compare.py OLD_DIR NEW_DIR

Each directory holds the captured standard output of at least five runs per
workload, one file per run, for example:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      bash benchmark/run.sh --workload svc_closed --seed $seed > old/svc_closed-$seed.txt
    done

Runs are paired by (workload, seed, traced). For every (metric, workload)
cell the script prints each side's median and quartiles and a label:

  improved    the new side wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the old side's
              quartile spread;
  regressed   the new median is worse than the old by more than the
              metric's bound in BENCHMARK.json (per-layer metrics, which
              have no bound, regress by the mirror of the improved rule);
  unresolved  either side's quartile spread, as a share of its median, is
              wider than the bound, unless every new run beats every old
              run;
  unchanged   otherwise.

A sim_digest that differs between the sides for the same (workload, seed)
is reported as a behaviour change: some simulated time moved. The exit code
is 1 when an end-to-end cell regressed or is unresolved, or when behaviour
changed, and 0 otherwise.
"""

import json
import os
import statistics
import sys

MIN_RUNS = 5
WIN_SHARE = 0.9


def load_spec(path):
    """Returns {metric name: (unit, better, bound or None)} from BENCHMARK.json."""
    with open(path) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["unit"], m["better"], float(m["bound"]))
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["unit"], m["better"], None)
    return metrics


def parse_run(text):
    """Returns (provenance dict, result dict) from one run's standard output."""
    provenance = None
    result = None
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if "provenance" in obj:
            provenance = obj["provenance"]
        elif "metrics" in obj:
            result = obj
    if provenance is None or result is None:
        raise ValueError("no provenance or result line")
    return provenance, result


def load_runs(directory):
    """Returns a list of (provenance, result) for every run file in `directory`."""
    runs = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            try:
                runs.append(parse_run(f.read()))
            except ValueError as e:
                raise ValueError("%s: %s" % (path, e))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def classify(old, new, better, bound):
    """Labels one cell. `old` and `new` are paired lists of equal length."""
    sign = 1.0 if better == "higher" else -1.0
    m_old = statistics.median(old)
    m_new = statistics.median(new)
    q1_old, q3_old = quartiles(old)
    q1_new, q3_new = quartiles(new)
    wins = sum(1 for o, n in zip(old, new) if sign * (n - o) > 0)
    losses = sum(1 for o, n in zip(old, new) if sign * (n - o) < 0)
    pairs = len(old)
    beyond_spread = abs(m_new - m_old) > (q3_old - q1_old)
    if wins >= WIN_SHARE * pairs and beyond_spread:
        return "improved"
    if bound is None:
        return "regressed" if losses >= WIN_SHARE * pairs and beyond_spread else "unchanged"

    def relative(delta, base):
        if base == 0:
            return 0.0 if delta == 0 else float("inf")
        return delta / abs(base)

    worse_by = relative(-sign * (m_new - m_old), m_old)
    if worse_by > bound:
        return "regressed"
    spread = max(relative(q3_old - q1_old, m_old), relative(q3_new - q1_new, m_new))
    every_new_better = min(sign * n for n in new) > max(sign * o for o in old)
    if spread > bound and not every_new_better:
        return "unresolved"
    return "unchanged"


def group(runs):
    """Returns {(workload, smoke, traced): {seed: metrics}} and
    {(workload, smoke, seed): set of sim digests}. Traced and untraced runs
    of one seed share a digest entry: tracing must not change simulation."""
    cells = {}
    digests = {}
    for provenance, result in runs:
        workload, smoke = provenance["workload"], bool(provenance["smoke"])
        key = (workload, smoke, bool(provenance["trace"]))
        cells.setdefault(key, {})[provenance["seed"]] = result["metrics"]
        digests.setdefault((workload, smoke, provenance["seed"]), set()).add(
            provenance["sim_digest"])
    return cells, digests


def compare(old_runs, new_runs, spec):
    """Returns (rows, problems). Each row is a dict describing one cell."""
    old_cells, old_digests = group(old_runs)
    new_cells, new_digests = group(new_runs)
    rows = []
    problems = []
    for key in sorted(set(old_cells) & set(new_cells)):
        workload, smoke, traced = key
        seeds = sorted(set(old_cells[key]) & set(new_cells[key]))
        if len(seeds) < MIN_RUNS:
            problems.append("%s%s%s: %d paired runs, need at least %d" % (
                workload, " (smoke)" if smoke else "", " (traced)" if traced else "",
                len(seeds), MIN_RUNS))
            continue
        names = [n for n in old_cells[key][seeds[0]] if n in spec]
        for name in names:
            if not all(name in old_cells[key][s] and name in new_cells[key][s] for s in seeds):
                continue
            unit, better, bound = spec[name]
            old = [old_cells[key][s][name]["value"] for s in seeds]
            new = [new_cells[key][s][name]["value"] for s in seeds]
            rows.append({
                "workload": workload, "metric": name, "unit": unit,
                "end_to_end": bound is not None,
                "old": (statistics.median(old),) + quartiles(old),
                "new": (statistics.median(new),) + quartiles(new),
                "label": classify(old, new, better, bound),
            })
    for key in sorted(set(old_digests) | set(new_digests), key=str):
        both = old_digests.get(key, set()) | new_digests.get(key, set())
        if len(both) > 1:
            problems.append("behaviour change: %s%s seed %s sim_digest %s" % (
                key[0], " (smoke)" if key[1] else "", key[2], " vs ".join(sorted(both))))
    return rows, problems


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    spec = load_spec(os.path.join(here, "..", "BENCHMARK.json"))
    rows, problems = compare(load_runs(argv[1]), load_runs(argv[2]), spec)
    print("%-15s %-28s %-10s %-36s %-36s %s" %
          ("workload", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "label"))
    failing = False
    for row in rows:
        print("%-15s %-28s %-10s %-36s %-36s %s" % (
            row["workload"], row["metric"], row["unit"],
            "%.6g [%.6g, %.6g]" % row["old"], "%.6g [%.6g, %.6g]" % row["new"], row["label"]))
        if row["end_to_end"] and row["label"] in ("regressed", "unresolved"):
            failing = True
    for problem in problems:
        print(problem)
        failing = True
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
