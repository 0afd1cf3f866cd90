import itertools
import os
import random
import subprocess
import sys

import pytest

import hyperchrom
from hyperchrom import gindex
from hyperchrom.complexes import hom_poset
from hyperchrom.hypergraph import (
    BudgetExhausted,
    SearchBudget,
    complete_hypergraph,
    kneser,
)
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


def random_3sat(seed):
    """A seeded random 3-SAT instance at clause density 4.26, near the
    satisfiability threshold."""
    rng = random.Random(seed)
    n = rng.randint(40, 60)
    clauses = []
    for _ in range(round(4.26 * n)):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return n, clauses


def model_mask(model):
    if model is None:
        return None
    return sum(1 << v for v in range(1, len(model)) if model[v])


# (seed, decisions, final len(solver.clauses), model as a bitmask over the
# variables, None when unsatisfiable), recorded from the solver that
# branched by a linear scan over all variables
RANDOM_3SAT_TRAJECTORIES = [
    (0, 68, 272, None),
    (1, 30, 203, 0x1CAF84198230),
    (2, 48, 210, None),
    (3, 56, 237, 0xC670260D4B42),
    (4, 66, 250, None),
    (5, 88, 325, None),
    (6, 146, 367, None),
    (7, 85, 276, 0x5C963E57FBFBC),
    (8, 75, 253, 0xD11AABE9D2B2),
    (9, 71, 284, 0x4E8BA7A1A8B9C2),
    (10, 157, 367, None),
    (11, 16, 237, 0x59806281A8C130),
    (12, 64, 286, None),
    (13, 39, 227, 0x71579F980E68),
    (14, 13, 188, 0x403F4BF0290),
    (15, 15, 196, 0x48E3D2888800),
    (16, 89, 272, 0x1C87345F3BC7A),
    (17, 22, 244, 0x150EB9080D44460),
    (18, 17, 204, 0x1E7F20778A4),
    (19, 39, 199, 0x1908CCE40DA),
    (20, 57, 232, None),
    (21, 87, 266, None),
    (22, 31, 208, None),
    (23, 47, 236, 0x35F6DC4050FEC),
    (24, 75, 283, None),
    (25, 114, 312, None),
    (26, 67, 248, None),
    (27, 63, 300, 0x5BF0F70A86F9E12),
    (28, 40, 213, None),
    (29, 125, 348, None),
    (30, 138, 356, None),
    (31, 52, 207, 0x15FE28F6066),
    (32, 38, 204, 0x60EDE9194DA),
    (33, 47, 275, 0x277DF269DF36B30),
    (34, 115, 317, 0x7F32AD86E1531E),
    (35, 98, 316, 0x1AF0A99AF016C16),
    (36, 54, 252, None),
    (37, 112, 337, 0x62B2A3F4FB28A86),
    (38, 81, 318, 0xF74A18EA425B24C),
    (39, 84, 265, None),
    (40, 115, 311, 0x7C3A22345FC702),
    (41, 51, 264, None),
    (42, 30, 267, 0x1BBA462E0160C5C0),
    (43, 23, 191, 0x36DDAFEAA28),
    (44, 14, 231, 0x29DFD3E59D09C0),
    (45, 42, 235, 0x1E5B1B125344C),
    (46, 58, 231, None),
    (47, 17, 221, 0x340F3D9A6D6E0),
    (48, 54, 276, 0x3F424462514C950),
    (49, 40, 213, None),
]


@pytest.mark.parametrize("seed, nodes, n_clauses, mask", RANDOM_3SAT_TRAJECTORIES)
def test_random_3sat_trajectory_pinned(seed, nodes, n_clauses, mask):
    n, clauses = random_3sat(seed)
    s = SatSolver(n)
    for cl in clauses:
        s.add_clause(cl)
    budget = SearchBudget()
    model = s.solve(budget)
    assert (budget.nodes, len(s.clauses), model_mask(model)) == (nodes, n_clauses, mask)


# (n, variables, decisions, final len(solver.clauses), model bitmask) of the
# order-map CNF of hom_poset(petersen, 2, 2) -> Q_{n,2} with one ORDER
# constraint per comparable pair, as the reference encoder builds it
PETERSEN_HOM_TRAJECTORIES = [
    (0, 55, 0, 240, None),
    (1, 110, 88, 610, 0x553607E7E00079E0000000000000),
]

# the same for the cover CNF that gindex._search_order_map builds
PETERSEN_HOM_COVER_TRAJECTORIES = [
    (0, 55, 0, 180, None),
    (1, 110, 72, 460, 0x557207E7E00028A0000000000000),
]


def order_map_trajectory(monkeypatch, search, n):
    """(variables, decisions, final len(solver.clauses), model bitmask) of
    the one solve that ``search`` makes on hom_poset(petersen, 2, 2)."""
    solved = []

    class Recording(SatSolver):
        def solve(self, budget=None):
            model = super().solve(budget)
            solved.append((self, model))
            return model

    monkeypatch.setattr(gindex, "SatSolver", Recording)
    P = hom_poset(kneser(complete_hypergraph(5, 2), 2), 2, 2)
    budget = SearchBudget()
    search(P, n, budget)
    ((s, model),) = solved
    return s.n, budget.nodes, len(s.clauses), model_mask(model)


@pytest.mark.parametrize("n, n_vars, nodes, n_clauses, mask", PETERSEN_HOM_TRAJECTORIES)
def test_petersen_hom_poset_trajectory_pinned(
    monkeypatch, full_pair_order_map, n, n_vars, nodes, n_clauses, mask
):
    assert order_map_trajectory(monkeypatch, full_pair_order_map, n) == (
        n_vars,
        nodes,
        n_clauses,
        mask,
    )


@pytest.mark.parametrize(
    "n, n_vars, nodes, n_clauses, mask", PETERSEN_HOM_COVER_TRAJECTORIES
)
def test_petersen_hom_poset_cover_trajectory_pinned(
    monkeypatch, n, n_vars, nodes, n_clauses, mask
):
    assert order_map_trajectory(monkeypatch, gindex._search_order_map, n) == (
        n_vars,
        nodes,
        n_clauses,
        mask,
    )


class ScanningSolver(SatSolver):
    """The reference branching rule: a linear scan for the unassigned
    variable of highest activity, the lowest index among ties."""

    def _pick_branch_var(self):
        var, best = 0, -1.0
        for v in range(1, self.n + 1):
            if not self.value[v] and self.activity[v] > best:
                var, best = v, self.activity[v]
        return var


def pigeonhole(pigeons, holes):
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


@pytest.mark.parametrize("var_inc", [1.0, 5e99])
@pytest.mark.parametrize(
    "instance",
    [random_3sat(seed) for seed in range(50, 60)] + [pigeonhole(6, 5)],
)
def test_heap_branching_matches_linear_scan(instance, var_inc):
    # var_inc = 5e99 makes the activities pass 1e100 and get rescaled
    # within a few conflicts
    n, clauses = instance
    runs = []
    for cls in (SatSolver, ScanningSolver):
        s = cls(n)
        for cl in clauses:
            s.add_clause(cl)
        s.var_inc = var_inc
        budget = SearchBudget()
        model = s.solve(budget)
        runs.append((budget.nodes, s.clauses, model, s.var_inc < var_inc))
    assert runs[0] == runs[1]
    assert runs[0][3] == (var_inc > 1)  # rescaled exactly when forced to


class NotPropagating(SatSolver):
    def _propagate(self, head):
        return None


def test_model_check_raises():
    s = NotPropagating(2)
    s.add_clause([1, 2])
    with pytest.raises(RuntimeError, match="internal error"):
        s.solve()


def test_model_check_survives_optimize_flag():
    code = (
        "from hyperchrom.sat import SatSolver\n"
        "class NotPropagating(SatSolver):\n"
        "    def _propagate(self, head):\n"
        "        return None\n"
        "s = NotPropagating(2)\n"
        "s.add_clause([1, 2])\n"
        "try:\n"
        "    print(s.solve())\n"
        "except RuntimeError:\n"
        "    print('refused')\n"
    )
    src = os.path.dirname(os.path.dirname(hyperchrom.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "refused", out.stderr
