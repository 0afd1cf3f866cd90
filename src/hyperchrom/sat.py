"""A small conflict-driven clause-learning SAT solver.

Literals follow the DIMACS convention: nonzero integers, with -v the
negation of variable v (variables are 1-based).  This is enough solver
for the equivariant-map searches in this package, which produce large
but shallow refutation problems; no external dependency is warranted
for that.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, Optional

from .hypergraph import SearchBudget

__all__ = ["SatSolver"]


class SatSolver:
    """CDCL with two watched literals, 1UIP learning, activity-based
    branching with phase saving, and geometric restarts.

    The branching variable is the unassigned variable of highest
    activity, the lowest index among ties.  It is taken from a binary
    heap of (-activity, variable) entries (``heapq``), read lazily as in
    MiniSat (Eén & Sörensson, SAT 2003): an entry whose key is no longer
    the variable's activity, or whose variable is assigned, is dropped
    when it is popped.  A variable gets a fresh entry when it is
    unassigned and has none with its current activity, so every
    unassigned variable always has one; the heap is rebuilt from the
    unassigned variables once it holds more than 2n entries.
    """

    def __init__(self, n_vars: int):
        self.n = n_vars
        self.clauses: list[list[int]] = []
        # watches[lit]: the clauses (the lists themselves) watching lit
        self.watches: dict[int, list[list[int]]] = {}
        # value[lit] is +1 true, -1 false, 0 free; negative literals use
        # Python's negative indexing, so value[-v] sits at 2n + 1 - v
        self.value = [0] * (2 * n_vars + 1)
        self.level = [0] * (n_vars + 1)
        self.reason: list[Optional[list[int]]] = [None] * (n_vars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.activity = [0.0] * (n_vars + 1)
        self.var_inc = 1.0
        self.phase = [False] * (n_vars + 1)
        self.seen = [False] * (n_vars + 1)  # marks of _analyze, cleared after use
        self.heap: list[tuple[float, int]] = []
        self.queued = [False] * (n_vars + 1)  # has an entry with its activity
        self.root_units: list[int] = []
        self.ok = True

    # -- clause management -------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> None:
        seen: dict[int, int] = {}
        out: list[int] = []
        for lit in lits:
            v = abs(lit)
            if not 1 <= v <= self.n:
                raise ValueError(f"literal {lit} out of range")
            if v in seen:
                if seen[v] != lit:
                    return  # tautology
                continue
            seen[v] = lit
            out.append(lit)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            self.root_units.append(out[0])
            return
        self.clauses.append(out)
        self.watches.setdefault(out[0], []).append(out)
        self.watches.setdefault(out[1], []).append(out)

    # -- assignment helpers ------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> bool:
        val = self.value[lit]
        if val:
            return val > 0
        v = abs(lit)
        self.value[lit] = 1
        self.value[-lit] = -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.phase[v] = lit > 0
        self.trail.append(lit)
        return True

    def _propagate(self, head: int) -> Optional[list[int]]:
        """Unit propagation from trail position ``head``; returns a
        conflicting clause, or None."""
        trail, watches = self.trail, self.watches
        value, level, reason, phase = self.value, self.level, self.reason, self.phase
        cur_level = len(self.trail_lim)
        while head < len(trail):
            falsified = -trail[head]
            head += 1
            watching = watches.get(falsified)
            if not watching:
                continue
            i = 0
            end = len(watching)
            while i < end:
                clause = watching[i]
                first = clause[0]
                if first == falsified:
                    first = clause[1]
                    if value[first] > 0:
                        i += 1
                        continue
                    clause[0] = first
                    clause[1] = falsified
                elif value[first] > 0:
                    i += 1
                    continue
                # clause[1] is now the falsified watch and clause[0] is not
                # true.  A clause its other watch satisfies is passed over
                # unswapped: every later visit puts the falsified watch in
                # position 1 first, and only a visited clause can become a
                # reason or a conflict, so the order is never read.
                k = 2
                for q in clause[2:]:
                    if value[q] >= 0:
                        clause[1] = q
                        clause[k] = falsified
                        ws = watches.get(q)
                        if ws is None:
                            watches[q] = [clause]
                        else:
                            ws.append(clause)
                        end -= 1
                        watching[i] = watching[end]
                        watching.pop()
                        break
                    k += 1
                else:
                    if value[first]:
                        return clause
                    value[first] = 1
                    value[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = cur_level
                    reason[v] = clause
                    phase[v] = first > 0
                    trail.append(first)
                    i += 1
        return None

    # -- branching heap ----------------------------------------------------

    def _rebuild_heap(self) -> None:
        value, activity = self.value, self.activity
        self.queued = [v > 0 and not value[v] for v in range(self.n + 1)]
        self.heap = [(-activity[v], v) for v in range(1, self.n + 1) if not value[v]]
        heapq.heapify(self.heap)

    def _pick_branch_var(self) -> int:
        """The unassigned variable of highest activity (lowest index
        among ties), or 0 when every variable is assigned."""
        heap, activity, value, queued = self.heap, self.activity, self.value, self.queued
        while heap:
            key, v = heapq.heappop(heap)
            if -key != activity[v]:
                continue  # stale: v was bumped since this entry was pushed
            queued[v] = False
            if not value[v]:
                return v
        return 0

    # -- conflict analysis -------------------------------------------------

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        self.queued[v] = False
        if self.activity[v] > 1e100:
            for u in range(1, self.n + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_heap()

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """1UIP learned clause and the level to backjump to."""
        seen, level, trail = self.seen, self.level, self.trail
        learned: list[int] = []
        marked: list[int] = []
        counter = 0
        lit = 0
        reason_clause = conflict
        idx = len(trail)
        cur_level = len(self.trail_lim)
        while True:
            for q in reason_clause:
                v = q if q > 0 else -q
                if q == lit or seen[v] or level[v] == 0:
                    continue
                seen[v] = True
                marked.append(v)
                self._bump(v)
                if level[v] == cur_level:
                    counter += 1
                else:
                    learned.append(q)
            while True:
                idx -= 1
                lit = trail[idx]
                if seen[abs(lit)]:
                    break
            counter -= 1
            if counter == 0:
                break
            reason_clause = self.reason[abs(lit)]
        for v in marked:
            seen[v] = False
        learned.insert(0, -lit)
        if len(learned) == 1:
            return learned, 0
        back = max(level[abs(q)] for q in learned[1:])
        return learned, back

    def _backjump(self, level: int) -> None:
        target = self.trail_lim[level]
        value, activity, queued, heap = self.value, self.activity, self.queued, self.heap
        for lit in self.trail[target:]:
            value[lit] = value[-lit] = 0
            v = lit if lit > 0 else -lit
            if not queued[v]:
                queued[v] = True
                heapq.heappush(heap, (-activity[v], v))
        del self.trail[target:]
        del self.trail_lim[level:]
        if len(heap) > 2 * self.n:
            self._rebuild_heap()

    def _check_model(self, model: list[bool]) -> None:
        units = ([u] for u in self.root_units)
        for clause in itertools.chain(self.clauses, units):
            if not any(model[abs(q)] == (q > 0) for q in clause):
                raise RuntimeError(
                    f"internal error: the model falsifies clause {clause}"
                )

    # -- main loop ---------------------------------------------------------

    def solve(self, budget: Optional[SearchBudget] = None) -> Optional[list[bool]]:
        """A model as bools indexed by variable (index 0 unused), or
        None if unsatisfiable.  Each branching decision is one search
        node of ``budget``; BudgetExhausted is raised when it runs out.
        Every model is checked against every clause before it is
        returned; RuntimeError is raised if one is falsified."""
        budget = budget or SearchBudget()
        if not self.ok:
            return None
        for lit in self.root_units:
            if not self._enqueue(lit, None):
                return None
        if self._propagate(0) is not None:
            return None
        self._rebuild_heap()
        root = len(self.trail)
        conflicts_total = 0
        restart_limit = 128

        while True:
            head = len(self.trail)
            conflict = None
            var = self._pick_branch_var()
            if not var:
                model = [False] + [self.value[v] > 0 for v in range(1, self.n + 1)]
                self._check_model(model)
                return model
            budget.tick()
            self.trail_lim.append(len(self.trail))
            self._enqueue(var if self.phase[var] else -var, None)

            while True:
                conflict = self._propagate(head)
                if conflict is None:
                    break
                conflicts_total += 1
                self.var_inc *= 1.05
                if not self.trail_lim:
                    return None
                learned, back = self._analyze(conflict)
                self._backjump(back)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        return None
                else:
                    # the second watch must sit at the backjump level
                    wpos = max(
                        range(1, len(learned)),
                        key=lambda k: self.level[abs(learned[k])],
                    )
                    learned[1], learned[wpos] = learned[wpos], learned[1]
                    self.clauses.append(learned)
                    self.watches.setdefault(learned[0], []).append(learned)
                    self.watches.setdefault(learned[1], []).append(learned)
                    self._enqueue(learned[0], learned)
                head = len(self.trail) - 1
                if conflicts_total >= restart_limit:
                    restart_limit = conflicts_total + int(restart_limit * 1.5)
                    if self.trail_lim:
                        self._backjump(0)
                    head = root
                    break
