"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces the public entry points of each hyperchrom
module with timing wrappers while it is active, and puts every original
back when it exits.  A name is replaced at every place it is bound:
``colorful`` imports ``xind_exact`` and ``hom_poset`` by name, ``gindex``
imports ``alt_min`` by name and the package re-exports most entry points,
so the tracer scans every loaded ``hyperchrom`` module for the original
object.  The ``SatSolver`` methods are wrapped on the class.

Spans are kept in memory as ``[layer, name, parent, start, end, outer]``
rows; ``outer`` is true when no span of the same layer encloses the span,
so summing outer spans gives a layer's busy time without double counting
recursion.  Self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import weakref
from collections import Counter
from time import perf_counter

# layer -> (module, attribute) entry points; "Class.method" is wrapped on the class
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli": (("cli", "main"),),
    "hypergraph": (
        ("hypergraph", "kneser"),
        ("hypergraph", "chromatic_number"),
        ("hypergraph", "clique_number"),
        ("hypergraph", "local_chromatic_number"),
    ),
    "altdefect": (("altdefect", "colorability_defect"), ("altdefect", "alt_min")),
    "complexes": (("complexes", "box_complex"), ("complexes", "hom_poset")),
    "gindex": (("gindex", "xind_exact"), ("gindex", "ind_bounds")),
    "sat": (("sat", "SatSolver.__init__"), ("sat", "SatSolver.solve")),
    "tucker": (
        ("tucker", "fan_sweep"),
        ("tucker", "find_fan_chain"),
        ("tucker", "check_labeling_conditions"),
    ),
    "colorful": (
        ("colorful", "find_colorful_balanced"),
        ("colorful", "zigzag_check"),
        ("colorful", "certify_local"),
        ("colorful", "validate_colorful"),
    ),
}

# (name, unit) of every per-layer metric, in report order
METRICS: tuple[tuple[str, str], ...] = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("hypergraph.busy_s", "s"),
    ("hypergraph.calls", "count"),
    ("altdefect.busy_s", "s"),
    ("complexes.busy_s", "s"),
    ("complexes.hom_elements", "count"),
    ("complexes.hom_order_pairs", "count"),
    ("complexes.box_maximal_simplices", "count"),
    ("sat.busy_s", "s"),
    ("sat.solvers", "count"),
    ("sat.solves", "count"),
    ("sat.unsat", "count"),
    ("sat.vars", "count"),
    ("sat.clauses_added", "count"),
    ("sat.learned", "count"),
    ("tucker.busy_s", "s"),
    ("tucker.admissible", "count"),
    ("tucker.checked", "count"),
    ("tucker.checked_per_s", "1/s"),
    ("tucker.chain_searches", "count"),
    ("tucker.chain_search_s", "s"),
    ("tucker.condition_checks", "count"),
    ("colorful.zigzag_s", "s"),
    ("colorful.recheck_s", "s"),
    ("colorful.searches", "count"),
    ("colorful.found_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "hyperchrom" or name.startswith("hyperchrom."))
    ]


class Tracer:
    """Context manager that records layer spans and result counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._sat_sizes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- patching ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        # sat is imported lazily by the program; load it before the scan
        for modname in {m for entries in LAYERS.values() for m, _ in entries}:
            importlib.import_module(f"hyperchrom.{modname}")
        modules = _package_modules()
        try:
            for layer, entries in LAYERS.items():
                for modname, attr in entries:
                    mod = sys.modules[f"hyperchrom.{modname}"]
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(mod, cls_name)
                        orig = cls.__dict__[meth]
                        self._set(cls, meth, self._wrap(layer, attr, orig))
                        continue
                    orig = getattr(mod, attr)
                    wrapper = self._wrap(layer, attr, orig)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is orig:
                                self._set(m, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _set(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patched:
            owner, key, orig = self._patched.pop()
            setattr(owner, key, orig)

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        before, after = self._hooks().get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            row = [layer, name, stack[-1] if stack else None, 0.0, 0.0, not depth[layer]]
            spans.append(row)
            stack.append(idx)
            depth[layer] += 1
            state = before(args) if before else None
            row[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[4] = perf_counter()
                depth[layer] -= 1
                stack.pop()
            if after:
                after(args, result, state)
            return result

        return wrapper

    # -- result counters ---------------------------------------------------

    def _hooks(self) -> dict:
        """name -> (before(args), after(args, result, before's value))."""
        return {
            "SatSolver.__init__": (None, self._sat_init),
            "SatSolver.solve": (self._sat_before, self._sat_after),
            "hom_poset": (None, self._hom_poset),
            "box_complex": (None, self._box_complex),
            "fan_sweep": (None, self._fan_sweep),
            "find_colorful_balanced": (None, self._search),
            "zigzag_check": (None, self._search),
        }

    def _sat_init(self, args, _result, _state) -> None:
        self.counters["sat.solvers"] += 1
        self.counters["sat.vars"] += args[0].n
        self._sat_sizes[args[0]] = 0

    def _sat_before(self, args) -> int:
        solver = args[0]
        stored = len(solver.clauses) + len(solver.root_units)
        self.counters["sat.clauses_added"] += stored - self._sat_sizes.get(solver, 0)
        return len(solver.clauses)

    def _sat_after(self, args, model, clauses_before: int) -> None:
        solver = args[0]
        self.counters["sat.solves"] += 1
        self.counters["sat.unsat"] += model is None
        self.counters["sat.learned"] += len(solver.clauses) - clauses_before
        self._sat_sizes[solver] = len(solver.clauses) + len(solver.root_units)

    def _hom_poset(self, _args, P, _state) -> None:
        self.counters["complexes.hom_elements"] += len(P)
        self.counters["complexes.hom_order_pairs"] += sum(len(a) for a in P.above)

    def _box_complex(self, _args, B, _state) -> None:
        self.counters["complexes.box_maximal_simplices"] += len(B.maximal_simplices)

    def _fan_sweep(self, _args, report, _state) -> None:
        self.counters["tucker.admissible"] += report.admissible
        self.counters["tucker.checked"] += report.checked

    def _search(self, _args, result, _state) -> None:
        from hyperchrom.tucker import Verdict

        self.counters["colorful.searches"] += 1
        self.counters["colorful.found"] += not isinstance(result, Verdict)

    # -- summaries ---------------------------------------------------------

    def calls(self) -> Counter:
        """Spans recorded per layer."""
        return Counter(row[0] for row in self.spans)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``."""
        child = [0.0] * len(self.spans)
        for row in self.spans:
            if row[2] is not None:
                child[row[2]] += row[4] - row[3]
        self_s: Counter = Counter()
        busy_s: Counter = Counter()
        by_name: Counter = Counter()
        count_by_name: Counter = Counter()
        for idx, (layer, name, _parent, start, end, outer) in enumerate(self.spans):
            self_s[layer] += end - start - child[idx]
            by_name[name] += end - start
            count_by_name[name] += 1
            if outer:
                busy_s[layer] += end - start
        c = self.counters
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update(
            {
                "hypergraph.busy_s": busy_s["hypergraph"],
                "hypergraph.calls": self.calls()["hypergraph"],
                "altdefect.busy_s": busy_s["altdefect"],
                "complexes.busy_s": busy_s["complexes"],
                "sat.busy_s": busy_s["sat"],
                "tucker.busy_s": busy_s["tucker"],
                "tucker.checked_per_s": (
                    c["tucker.checked"] / busy_s["tucker"] if busy_s["tucker"] else 0.0
                ),
                "tucker.chain_searches": count_by_name["find_fan_chain"],
                "tucker.chain_search_s": by_name["find_fan_chain"],
                "tucker.condition_checks": count_by_name["check_labeling_conditions"],
                "colorful.zigzag_s": by_name["zigzag_check"],
                "colorful.recheck_s": by_name["validate_colorful"],
                "colorful.found_ratio": (
                    c["colorful.found"] / c["colorful.searches"]
                    if c["colorful.searches"]
                    else 0.0
                ),
            }
        )
        for name, _unit in METRICS:
            if name not in out and name != "trace.overhead_s":
                out[name] = c[name]
        return out


def span_cost_s() -> float:
    """Seconds a tracing wrapper adds to one call: a wrapped no-op minus a
    bare one, as the median of 5 batches of 20,000 calls.  Result-counter
    hooks, which run on a few named functions only, are not included."""
    calls = 20_000

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("probe", "noop", noop)
    costs = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        costs.append((t2 - t1 - (t1 - t0)) / calls)
        tracer.spans.clear()
    return statistics.median(costs)
