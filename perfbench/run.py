"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload chain --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics: whole passes over the
workload's tasks run until ``--seconds`` have elapsed (at least one
pass), and times are medians over passes.  ``setup_s`` is the median of
several fresh processes that each import the program and build the
inputs.  ``--trace 1`` runs one plain pass and one traced pass and
reports the per-layer metrics; the spans go to ``perfbench/out/``.
``--workload all`` runs every workload in its own process and prints
one row each.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (``workloads``,
one result each, with ``--workload all``).  The exit code
is 0 when every answer was correct, 1 when one was not, and 2 when the
program could not be loaded.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# set-up probes on each side of the passes: at least this many, and at
# least this many seconds of probing
SETUP_PROBES = (2, 3)
SETUP_PROBE_S = 1.5
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("task_p95_ms", "ms"),
)
# printed with the end-to-end metrics but not declared in BENCHMARK.json:
# on witness it moves by 1.3 to 1.8 times the machine's drift (README)
PRINTED_ONLY = {"task_p50_ms": "ms"}


class ProgramMissing(Exception):
    pass


def load_program(root: Path) -> None:
    """Import hyperchrom from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import hyperchrom
        import hyperchrom.cli  # noqa: F401
    except ImportError as exc:
        raise ProgramMissing(f"cannot import hyperchrom from {src}: {exc}") from exc
    if not Path(hyperchrom.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"hyperchrom was imported from {hyperchrom.__file__}, not {src}")


@dataclass
class Pass:
    wall_s: float
    task_s: list
    answers: list
    problems: list  # (task label, problem)


def run_pass(tasks: list, reference: Pass | None = None) -> Pass:
    """Run and check every task once.  Given a reference pass, each answer
    is compared with the reference's and then dropped, so that memory
    does not grow with the number of passes."""
    gc.collect()
    task_s, answers, problems = [], [], []
    start = perf_counter()
    for i, task in enumerate(tasks):
        t0 = perf_counter()
        try:
            answer = task.run()
            errors = task.check(answer)
        except Exception as exc:  # a failed task is counted, and the run goes on
            answer, errors = None, [f"{type(exc).__name__}: {exc}"]
        task_s.append(perf_counter() - t0)
        if reference is None:
            answers.append(answer)
        elif answer != reference.answers[i]:
            errors.append("answer differs from the first pass")
        problems += [(task.label, e) for e in errors]
    return Pass(perf_counter() - start, task_s, answers, problems)


def failures(passes: list) -> list:
    """(pass, task label, problem) for every problem of every pass."""
    return [(i, label, problem) for i, p in enumerate(passes) for label, problem in p.problems]


def setup_seconds(workload: str, seed: int, probes: int) -> list:
    """Set-up times (imports plus inputs) of fresh processes, started one
    after another until there are ``probes`` of them and ``SETUP_PROBE_S``
    seconds have passed."""
    times = []
    start = perf_counter()
    while len(times) < probes or perf_counter() - start < SETUP_PROBE_S:
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


def percentile_ms(values: list, q: int) -> float:
    """The q-th percentile (1..99) of durations in seconds, in ms."""
    if len(values) == 1:
        return values[0] * 1000
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000


def measure(name: str, seed: int, seconds: float) -> tuple:
    """End-to-end metrics with tracing off.

    Returns (metrics, attempted, failed, problems, passes).  Times are
    taken per pass and reported as the median over passes, so a run that
    fits one more pass reports the same statistic.  The set-up probes run
    half before and half after the passes, so that their median does not
    rest on one moment of a machine whose speed drifts.
    """
    w = WORKLOADS[name]
    tasks = w.tasks(w.inputs(seed))
    setup = setup_seconds(name, seed, SETUP_PROBES[0])
    start = perf_counter()
    passes = [run_pass(tasks)]
    while perf_counter() - start < seconds:
        passes.append(run_pass(tasks, passes[0]))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += setup_seconds(name, seed, SETUP_PROBES[1])
    problems = failures(passes)
    walls = [p.wall_s for p in passes]
    if w.latency_per_task:
        p50 = statistics.median(percentile_ms(p.task_s, 50) for p in passes)
        p95 = statistics.median(percentile_ms(p.task_s, 95) for p in passes)
    else:
        # a few requests: no percentile above the median has ten beyond it
        p50 = p95 = statistics.median(walls) * 1000
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "task_p50_ms": p50,
        "task_p95_ms": p95,
    }
    failed = len({(i, label) for i, label, _ in problems})
    return metrics, len(passes) * len(tasks), failed, problems, len(passes)


def trace(name: str, seed: int) -> tuple:
    """Per-layer metrics from one traced pass, next to one plain pass.

    ``trace.overhead_s`` is what the wrappers add to the traced pass:
    the spans it recorded times the measured cost of one wrapped call.
    The two passes' own difference is mostly the machine's drift.
    """
    from tracing import Tracer, span_cost_s

    w = WORKLOADS[name]
    tasks = w.tasks(w.inputs(seed))
    plain = run_pass(tasks)
    with Tracer() as tracer:
        traced = run_pass(tasks, plain)
    calls = tracer.calls()
    problems = failures([plain, traced]) + [
        (1, f"layer {layer}", "no calls recorded in the traced pass")
        for layer in w.layers
        if not calls[layer]
    ]
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = len(tracer.spans) * span_cost_s()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{name}-seed{seed}.json", "w") as fh:
        json.dump({"workload": name, "seed": seed, "spans": tracer.spans}, fh)
    failed = len({(i, label) for i, label, _ in problems})
    return metrics, 2 * len(tasks) + len(w.layers), failed, problems, 2


def run_child(argv: list, cwd: Path | None = None) -> dict | None:
    """Run this script in a fresh process and return its result line, or
    None (with its output on stderr) when it printed none."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
    )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{' '.join(argv)}: no result (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
        return None


def run_all(args) -> int:
    """Every workload in a fresh process, one row each."""
    rows = []
    for name in WORKLOADS:
        result = run_child(["--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)])
        if result is None:
            return 1
        rows.append((name, result))
        cells = "  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
        print(f"{name:<9} fail_ratio={result['failed']}/{result['attempted']}  {cells}", flush=True)
    ok = all(r["correct"] for _, r in rows)
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "workloads": dict(rows),
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program(Path.cwd())
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        from tracing import METRICS

        metrics, attempted, failed, problems, passes = trace(args.workload, args.seed)
        units = dict(METRICS)
    else:
        metrics, attempted, failed, problems, passes = measure(args.workload, args.seed, args.seconds)
        units = dict(END_TO_END)
    for i, label, problem in problems:
        print(f"FAIL pass {i} {label}: {problem}")
    print(f"{args.workload} seed={args.seed} passes={passes} fail_ratio={failed}/{attempted}")
    for key, value in metrics.items():
        print(f"  {key:<34} {value:.6g} {units.get(key) or PRINTED_ONLY[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
