"""The one canonical-coloring enumerator against reference copies of the
searches it replaced.

``_reference_search_coloring`` and ``_reference_chromatic_number`` are
the former decreasing-degree search behind ``chromatic_number``, and
``_reference_r_colorable`` the former ``altdefect._r_colorable``, which
searched the induced subhypergraph of every kept set.  They are kept
verbatim apart from their names.  The enumerator must give the same
chromatic numbers and colorings, and the same colorability defects.
"""

import itertools
import random
from math import inf

import pytest

from hyperchrom.altdefect import _r_colorable, colorability_defect
from hyperchrom.hypergraph import (
    BudgetExhausted,
    ChromaticResult,
    Coloring,
    Hypergraph,
    SearchBudget,
    _canonical_colorings,
    _closes_edge,
    _degree_order,
    _edges_through,
    build_hypergraph,
    chromatic_number,
    complete_hypergraph,
    induced,
    usual_kneser,
)


def _reference_search_coloring(H, t, budget):
    n = H.n
    through = _edges_through(H)
    order = sorted(H.vertices, key=lambda v: (-len(through[v]), v))

    color_of = [0] * (n + 1)  # vertex -> color, 0 = unassigned
    class_mask = [0] * (t + 1)

    def place(i, used):
        budget.tick()
        if i == n:
            return True
        v = order[i]
        vbit = 1 << v
        cmax = min(t, used + 1)
        for c in range(1, cmax + 1):
            new_mask = class_mask[c] | vbit
            if _closes_edge(through[v], new_mask):
                continue
            color_of[v] = c
            class_mask[c] = new_mask
            if place(i + 1, max(used, c)):
                return True
            class_mask[c] = new_mask & ~vbit
            color_of[v] = 0
        return False

    if place(0, 0):
        return color_of[1:]
    return None


def _reference_chromatic_number(H, budget=None):
    if any(len(e) == 1 for e in H.edges):
        return ChromaticResult(value=inf, coloring=None, exact=True)
    budget = budget or SearchBudget()
    lower = 2 if H.edges else 1
    t = 1 if not H.edges else 2
    while True:
        try:
            sol = _reference_search_coloring(H, t, budget)
        except BudgetExhausted:
            return ChromaticResult(value=t, coloring=None, exact=False, lower=lower)
        if sol is not None:
            col = Coloring(tuple(sol), palette_size=t)
            return ChromaticResult(value=t, coloring=col, exact=True, lower=t)
        lower = t + 1
        t += 1


def _reference_r_colorable(H, keep, r):
    if not keep:
        return True
    sub, _ = induced(H, keep)
    if not sub.edges:
        return True
    return _reference_search_coloring(sub, r, SearchBudget()) is not None


def _reference_colorability_defect(H, r):
    verts = list(H.vertices)
    for s in range(0, H.n + 1):
        for removed in itertools.combinations(verts, s):
            keep = frozenset(verts) - set(removed)
            if _reference_r_colorable(H, keep, r):
                return s
    return H.n


def _random_hypergraph(rng):
    """Mixed edge sizes 1..4, or no edge at all in about one in eight.
    Of the 300 below, 60 have a singleton edge and 45 none."""
    n = rng.randint(1, 8)
    if rng.random() < 0.125:
        return Hypergraph(n=n, edges=())
    edges = []
    for _ in range(rng.randint(1, 3 * n)):
        size = rng.choice([2, 2, 2, 3, 3, 4]) if rng.random() > 0.015 else 1
        edges.append(rng.sample(range(1, n + 1), min(size, n)))
    return build_hypergraph(n, edges)


RANDOM = [_random_hypergraph(random.Random(seed)) for seed in range(300)]


def test_random_corpus_covers_the_edge_cases():
    assert any(not H.edges for H in RANDOM)
    assert any(any(len(e) == 1 for e in H.edges) for H in RANDOM)
    assert any(len({len(e) for e in H.edges}) >= 3 for H in RANDOM)


@pytest.mark.parametrize("chunk", range(6))
def test_chromatic_number_matches_reference(chunk):
    for H in RANDOM[chunk::6]:
        assert chromatic_number(H) == _reference_chromatic_number(H), H


@pytest.mark.parametrize("chunk", range(6))
def test_colorability_defect_matches_reference(chunk):
    for H in RANDOM[chunk::6]:
        for r in (2, 3):
            assert colorability_defect(H, r) == _reference_colorability_defect(H, r), (H, r)


@pytest.mark.parametrize("chunk", range(3))
def test_r_colorable_matches_reference_on_every_kept_set(chunk):
    rng = random.Random(chunk)
    for H in RANDOM[chunk::12]:
        for _ in range(20):
            keep = frozenset(v for v in H.vertices if rng.random() < 0.6)
            for r in (2, 3):
                assert _r_colorable(H, keep, r) == _reference_r_colorable(H, keep, r)


@pytest.mark.parametrize(
    "H",
    [usual_kneser(8, 2, 2), usual_kneser(7, 2, 3), usual_kneser(5, 2, 2), complete_hypergraph(6, 3)],
    ids=["KG82", "KG372", "petersen", "K63"],
)
def test_chromatic_number_matches_reference_on_kneser(H):
    assert chromatic_number(H) == _reference_chromatic_number(H)


def test_kept_colorings_are_the_induced_colorings():
    """Restricted to ``keep``, the colorings of H in ascending order of
    ``keep`` are those of the induced subhypergraph, in order."""
    rng = random.Random(7)
    for H in RANDOM[:60]:
        keep = sorted(v for v in H.vertices if rng.random() < 0.7)
        if not keep:
            continue
        sub, _ = induced(H, keep)
        for t in (2, 3):
            got = [tuple(a[v - 1] for v in keep) for a in _canonical_colorings(H, t, order=keep)]
            assert got == list(_canonical_colorings(sub, t))


def test_empty_order_colors_no_vertex():
    H = build_hypergraph(4, [[3], [1, 2]])
    assert list(_canonical_colorings(H, 2, order=[])) == [(0, 0, 0, 0)]
    assert _r_colorable(H, frozenset(), 2)
    # an edge through an uncolored vertex never closes
    assert _r_colorable(H, frozenset({1, 2, 4}), 2)
    assert not _r_colorable(H, frozenset({3}), 2)
    assert not _r_colorable(H, frozenset({1, 2}), 1)


def test_degree_order_counts_edges_inside_keep():
    H = build_hypergraph(5, [[1, 2], [2, 3], [3, 4], [3, 5]])
    assert _degree_order(H, frozenset(H.vertices)) == [3, 2, 1, 4, 5]
    # without vertex 2, vertex 3 keeps two edges and 1 loses its only one
    assert _degree_order(H, frozenset({1, 3, 4, 5})) == [3, 4, 5, 1]


def test_chromatic_budget_of_one_node_gives_a_bracket():
    H = usual_kneser(5, 2, 2)
    res = chromatic_number(H, SearchBudget(max_nodes=1))
    assert res == ChromaticResult(value=2, coloring=None, exact=False, lower=2)


def test_chromatic_budget_counts_colors_tried():
    """The budget counts the colors the enumerator tries, across every t:
    just enough to refute t = 2 on Petersen leaves the bracket [3, 3]."""
    H = usual_kneser(5, 2, 2)
    order = _degree_order(H, frozenset(H.vertices))
    refute = SearchBudget()
    assert list(_canonical_colorings(H, 2, refute, order)) == []
    res = chromatic_number(H, SearchBudget(max_nodes=refute.nodes))
    assert res == ChromaticResult(value=3, coloring=None, exact=False, lower=3)
    budget = SearchBudget(max_nodes=10 * refute.nodes)
    assert chromatic_number(H, budget) == chromatic_number(H)
    assert refute.nodes < budget.nodes < 10 * refute.nodes


def test_long_cycles_need_no_recursion():
    n = 3001
    C = build_hypergraph(n, [[i, i % n + 1] for i in range(1, n + 1)])
    res = chromatic_number(C)
    assert res.value == 3 and res.exact
    assert colorability_defect(C, 2) == 1
