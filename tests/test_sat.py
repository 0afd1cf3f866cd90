import itertools
import random

import pytest

from hyperchrom.hypergraph import BudgetExhausted, SearchBudget
from hyperchrom.sat import SatSolver


def brute_force(n_vars, clauses):
    for bits in itertools.product([False, True], repeat=n_vars):
        model = (False,) + bits
        if all(any(model[abs(q)] == (q > 0) for q in cl) for cl in clauses):
            return True
    return False


def test_simple_sat():
    s = SatSolver(2)
    s.add_clause([1, 2])
    s.add_clause([-1, 2])
    model = s.solve()
    assert model is not None
    assert model[2]


def test_simple_unsat():
    s = SatSolver(1)
    s.add_clause([1])
    s.add_clause([-1])
    assert s.solve() is None


def test_tautology_ignored():
    s = SatSolver(1)
    s.add_clause([1, -1])
    assert s.solve() is not None


def test_empty_clause_unsat():
    s = SatSolver(1)
    s.add_clause([])
    assert s.solve() is None


def test_random_instances_match_brute_force():
    rng = random.Random(12345)
    for _ in range(300):
        n = rng.randint(1, 8)
        m = rng.randint(1, 25)
        clauses = [
            [rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(rng.randint(1, 3))]
            for _ in range(m)
        ]
        s = SatSolver(n)
        for cl in clauses:
            s.add_clause(cl)
        model = s.solve()
        expect = brute_force(n, clauses)
        assert (model is not None) == expect
        if model is not None:
            assert all(
                any(model[abs(q)] == (q > 0) for q in cl) for cl in clauses
            )


def test_pigeonhole_unsat():
    # PHP(5, 4): 5 pigeons in 4 holes
    pigeons, holes = 5, 4
    var = lambda p, h: p * holes + h + 1
    s = SatSolver(pigeons * holes)
    for p in range(pigeons):
        s.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([-var(p1, h), -var(p2, h)])
    assert s.solve() is None


def test_conflict_budget_raises():
    pigeons, holes = 8, 7
    var = lambda p, h: p * holes + h + 1
    s = SatSolver(pigeons * holes)
    for p in range(pigeons):
        s.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([-var(p1, h), -var(p2, h)])
    with pytest.raises(BudgetExhausted):
        s.solve(SearchBudget(max_nodes=10))
