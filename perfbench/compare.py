"""Compare a parent checkout with a change checkout on the benchmark.

    python3 perfbench/compare.py --parent PARENT_DIR --change CHANGE_DIR

Both sides run this directory's ``run.py`` with identical settings; each
side imports the program from its own ``src``.  There are ten pairs, and
every pair runs every workload with tracing off.  Pair i runs both sides
on seed 1000 + i, parent first in even pairs and change first in odd
ones.  Every run is printed, then one row per workload with a verdict
per end-to-end metric:

- ``gain``: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ, in the better direction, by more than
  the parent's interquartile spread;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound from BENCHMARK.json;
- ``unresolved``: the relative interquartile spread of either side is
  wider than the bound, unless every change run beats every parent run;
- ``within bound`` otherwise.

A gain is void when the change failed more tasks than the parent.  The
exit code is 1 when any metric regressed or a run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import run_child

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PAIRS = 10
BASE_SEED = 1000


def quartiles(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def judge(parent: list, change: list, better: str, bound: float) -> str:
    """Verdict for one metric over paired runs (parent[i] with change[i])."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, _, p_q3 = quartiles(parent)
    if wins >= 0.9 * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1:
        return "gain"
    if p_med and sign * (p_med - c_med) / abs(p_med) > bound:
        return "regression"
    every_better = all(sign * (b - a) > 0 for a in parent for b in change)
    spreads = [(q3 - q1) / abs(q2) if q2 else 0.0 for q1, q2, q3 in (quartiles(parent), quartiles(change))]
    if max(spreads) > bound and not every_better:
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in SPEC["workloads"]]
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    results = {(w, side): [] for w in workloads for side in sides}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                res = run_child(["--workload", w, "--seed", str(BASE_SEED + i),
                                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                                cwd=sides[side])
                if res is None:
                    return 1
                results[w, side].append(res)
                cells = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
                print(f"pair {i} {w} {side}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {cells}", flush=True)

    bad = False
    for w in workloads:
        failed = {side: sum(r["failed"] for r in results[w, side]) for side in sides}
        bad |= any(failed.values())
        cells = []
        for name, m in spec.items():
            parent = [r["metrics"][name]["value"] for r in results[w, "parent"]]
            change = [r["metrics"][name]["value"] for r in results[w, "change"]]
            verdict = judge(parent, change, m["better"], m["bound"])
            if verdict == "gain" and failed["change"] > failed["parent"]:
                verdict = "gain void: more failures"
            bad |= verdict == "regression"
            (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(parent), quartiles(change)
            cells.append(f"{name} {pm:.4g} [{pq1:.4g}, {pq3:.4g}] -> {cm:.4g} [{cq1:.4g}, {cq3:.4g}] {verdict}")
        print(f"{w}: failed {failed['parent']} -> {failed['change']}; " + "; ".join(cells))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
