"""Diff two benchmark result sets, workload by workload and metric by
metric, on the medians of their runs.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are result files written by run.py (perfbench/out/*.json,
or the last line of its stdout saved to a file) or directories of
them. The runs of each side are grouped by workload and trace mode, and
each metric is compared as the median over a group's runs, so pass ten
or more runs per side (different seeds) for a verdict. A bare stdout
line carries no workload name, so such files are grouped by trace mode
only: give them one workload per directory.

An end-to-end metric is flagged WORSE when its median got worse by more
than its bound in BENCHMARK.json, BETTER when it improved by more than
the bound. A per-layer metric is flagged "moved" when its median changed
by more than MOVED (a share of the old median). Exits with code 1 when
any metric is WORSE.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# share of the old median by which a per-layer metric must change to be
# flagged as moved
MOVED = 0.10


def load_results(path):
    """{(workload, trace mode): [metrics dict, ...]} for a result file or
    a directory of them."""
    if os.path.isdir(path):
        files = [os.path.join(path, n) for n in sorted(os.listdir(path))
                 if n.endswith(".json") and not n.endswith("-spans.json")]
    else:
        files = [path]
    groups = {}
    for name in files:
        with open(name, encoding="utf-8") as fh:
            data = json.load(fh)
        # a run.py result file, or the bare last line of its stdout
        result = data.get("result", data)
        if not isinstance(result, dict) or "metrics" not in result:
            continue
        metrics = result["metrics"]
        workload = data.get("context", {}).get("workload", "-")
        mode = "trace 0" if "setup_s" in metrics else "trace 1"
        groups.setdefault((workload, mode), []).append(metrics)
    return groups


def end_to_end_rules():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def flag(name, old, new, rules):
    if old == new:
        return ""
    change = (new - old) / abs(old) if old else float("inf")
    if name in rules:
        better, bound = rules[name]
        worse = change > bound if better == "lower" else change < -bound
        gained = change < -bound if better == "lower" else change > bound
        return "WORSE" if worse else "BETTER" if gained else ""
    return "moved" if abs(change) > MOVED else ""


def medians(runs):
    """{metric: median of its values over the runs}, in the order the
    metrics first appear."""
    names = dict.fromkeys(name for metrics in runs for name in metrics)
    return {name: statistics.median(m[name]["value"] for m in runs if name in m)
            for name in names}


def compare(old_set, new_set, rules, out=sys.stdout):
    """Print one table per workload and trace mode present on both
    sides; returns the number of WORSE flags."""
    worse = 0
    if len(old_set) == 1 and len(new_set) == 1:
        pairs = [(next(iter(old_set)), next(iter(new_set)))]
    else:
        pairs = [(key, key) for key in old_set if key in new_set]
    for old_key, new_key in pairs:
        old_runs, new_runs = old_set[old_key], new_set[new_key]
        workload, mode = new_key if new_key[0] != "-" else old_key
        print(f"{workload} {mode}: median of {len(old_runs)} old and "
              f"{len(new_runs)} new runs", file=out)
        old_m, new_m = medians(old_runs), medians(new_runs)
        for name, b in new_m.items():
            if name not in old_m:
                print(f"  {name:36s} {'':>12s} {b:12.4f}  new", file=out)
                continue
            a = old_m[name]
            change = f"{100.0 * (b - a) / abs(a):+8.1f}%" if a else " " * 9
            mark = flag(name, a, b, rules)
            worse += mark == "WORSE"
            print(f"  {name:36s} {a:12.4f} {b:12.4f} {change}  {mark}".rstrip(),
                  file=out)
    return worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    worse = compare(load_results(args.old), load_results(args.new),
                    end_to_end_rules())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
