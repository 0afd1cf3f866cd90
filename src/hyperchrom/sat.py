"""A small conflict-driven clause-learning SAT solver.

Literals follow the DIMACS convention: nonzero integers, with -v the
negation of variable v (variables are 1-based).  This is enough solver
for the equivariant-map searches in this package, which produce large
but shallow refutation problems; no external dependency is warranted
for that.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .hypergraph import SearchBudget

__all__ = ["SatSolver"]


class SatSolver:
    """CDCL with two watched literals, 1UIP learning, activity-based
    branching with phase saving, and geometric restarts."""

    def __init__(self, n_vars: int):
        self.n = n_vars
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[int]] = {}
        self.assign = [0] * (n_vars + 1)  # 0 free, +1 true, -1 false
        self.level = [0] * (n_vars + 1)
        self.reason: list[Optional[int]] = [None] * (n_vars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.activity = [0.0] * (n_vars + 1)
        self.var_inc = 1.0
        self.phase = [False] * (n_vars + 1)
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
        idx = len(self.clauses)
        self.clauses.append(out)
        self.watches.setdefault(out[0], []).append(idx)
        self.watches.setdefault(out[1], []).append(idx)

    # -- assignment helpers ------------------------------------------------

    def _value(self, lit: int) -> int:
        s = self.assign[abs(lit)]
        return s if lit > 0 else -s

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        val = self._value(lit)
        if val:
            return val > 0
        v = abs(lit)
        self.assign[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.phase[v] = lit > 0
        self.trail.append(lit)
        return True

    def _propagate(self, head: int) -> Optional[int]:
        """Unit propagation from trail position ``head``; returns the
        index of a conflicting clause, or None."""
        while head < len(self.trail):
            lit = self.trail[head]
            head += 1
            falsified = -lit
            watching = self.watches.get(falsified, [])
            i = 0
            while i < len(watching):
                ci = watching[i]
                clause = self.clauses[ci]
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                # clause[1] is now the falsified watch
                if self._value(clause[0]) > 0:
                    i += 1
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) >= 0:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(clause[1], []).append(ci)
                        watching[i] = watching[-1]
                        watching.pop()
                        moved = True
                        break
                if moved:
                    continue
                if not self._enqueue(clause[0], ci):
                    return ci
                i += 1
        return None

    # -- conflict analysis -------------------------------------------------

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for u in range(1, self.n + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """1UIP learned clause and the level to backjump to."""
        learned: list[int] = []
        seen = [False] * (self.n + 1)
        counter = 0
        lit = 0
        reason_clause = list(self.clauses[conflict])
        idx = len(self.trail)
        cur_level = len(self.trail_lim)
        while True:
            for q in reason_clause:
                v = abs(q)
                if q == lit or seen[v] or self.level[v] == 0:
                    continue
                seen[v] = True
                self._bump(v)
                if self.level[v] == cur_level:
                    counter += 1
                else:
                    learned.append(q)
            while True:
                idx -= 1
                lit = self.trail[idx]
                if seen[abs(lit)]:
                    break
            counter -= 1
            if counter == 0:
                break
            r = self.reason[abs(lit)]
            reason_clause = [q for q in self.clauses[r] if q != lit]
        learned.insert(0, -lit)
        if len(learned) == 1:
            return learned, 0
        back = max(self.level[abs(q)] for q in learned[1:])
        return learned, back

    def _backjump(self, level: int) -> None:
        target = self.trail_lim[level]
        for lit in self.trail[target:]:
            self.assign[abs(lit)] = 0
            self.reason[abs(lit)] = None
        del self.trail[target:]
        del self.trail_lim[level:]

    # -- main loop ---------------------------------------------------------

    def solve(self, budget: Optional[SearchBudget] = None) -> Optional[list[bool]]:
        """A model as bools indexed by variable (index 0 unused), or
        None if unsatisfiable.  Each branching decision is one search
        node of ``budget``; BudgetExhausted is raised when it runs out."""
        budget = budget or SearchBudget()
        if not self.ok:
            return None
        for lit in self.root_units:
            if not self._enqueue(lit, None):
                return None
        if self._propagate(0) is not None:
            return None
        root = len(self.trail)
        conflicts_total = 0
        restart_limit = 128

        while True:
            head = len(self.trail)
            conflict = None
            # pick a branching variable
            var = 0
            best = -1.0
            for v in range(1, self.n + 1):
                if not self.assign[v] and self.activity[v] > best:
                    best = self.activity[v]
                    var = v
            if not var:
                model = [False] + [self.assign[v] > 0 for v in range(1, self.n + 1)]
                assert all(
                    any(model[abs(q)] == (q > 0) for q in clause)
                    for clause in self.clauses
                ), "internal error: incomplete propagation"
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
                    idx = len(self.clauses)
                    self.clauses.append(learned)
                    self.watches.setdefault(learned[0], []).append(idx)
                    self.watches.setdefault(learned[1], []).append(idx)
                    self._enqueue(learned[0], idx)
                head = len(self.trail) - 1
                if conflicts_total >= restart_limit:
                    restart_limit = conflicts_total + int(restart_limit * 1.5)
                    if self.trail_lim:
                        self._backjump(0)
                    head = root
                    break
