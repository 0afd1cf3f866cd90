"""The one monochromatic-edge test (``hypergraph._closes_edge`` over the
masks of ``_edges_through``) against reference copies of the searches
that scanned every edge.

The references are the former ``_canonical_colorings`` and
``random_proper_coloring``, kept verbatim apart from building their own
edge masks (bit v-1 for vertex v).  The searches must yield the same
colorings in the same order, tick the same budget nodes and draw the
same random numbers.
"""

import itertools
import random

import pytest

from hyperchrom.colorful import (
    _reenact_cases,
    certify_local,
    find_colorful_balanced,
    random_proper_coloring,
)
from hyperchrom.hypergraph import (
    Coloring,
    SearchBudget,
    _canonical_colorings,
    _edges_through,
    _local_palettes,
    build_hypergraph,
    chromatic_number,
    complete_hypergraph,
    independence_number,
    usual_kneser,
)


def _reference_canonical_colorings(H, max_colors, budget):
    n = H.n
    masks = tuple(sum(1 << (v - 1) for v in e) for e in H.edges)
    assignment = [0] * n

    def closes_edge(i):
        budget.tick()
        c = assignment[i]
        cmask = 0
        for v0 in range(i + 1):
            if assignment[v0] == c:
                cmask |= 1 << v0
        return any(m & ~cmask == 0 for m in masks)

    def rec(i, used):
        if i == n:
            yield tuple(assignment)
            return
        for c in range(1, min(used + 1, max_colors) + 1):
            assignment[i] = c
            if closes_edge(i):
                continue
            yield from rec(i + 1, max(used, c))
        assignment[i] = 0

    yield from rec(0, 0)


def _reference_random_proper_coloring(H, max_colors, rng):
    for _ in range(1000):
        order = list(H.vertices)
        rng.shuffle(order)
        assignment = [0] * (H.n + 1)
        ok = True
        for v in order:
            feasible = []
            for col in range(1, max_colors + 1):
                assignment[v] = col
                if not any(
                    all(assignment[u] == col for u in e) for e in H.edges if v in e
                ):
                    feasible.append(col)
            assignment[v] = 0
            if not feasible:
                ok = False
                break
            assignment[v] = rng.choice(feasible)
        if ok:
            return Coloring(tuple(assignment[1:]), palette_size=max_colors)
    raise ValueError(f"no proper coloring with {max_colors} colors found")


def cycle(n):
    return build_hypergraph(n, [[i, i % n + 1] for i in range(1, n + 1)])


# non-uniform, edges of sizes 1 to 4; the singleton is on vertex 6, the
# last one the canonical sweep reaches
MIXED = build_hypergraph(6, [[1, 2], [2, 3, 4], [1, 4, 5, 6], [3, 5], [6]])

SMALL = {
    "K4": complete_hypergraph(4, 2),
    "C5": cycle(5),
    "petersen": usual_kneser(5, 2, 2),
    "mixed": MIXED,
    "mixed-no-singleton": build_hypergraph(6, [[1, 2], [2, 3, 4], [1, 4, 5, 6], [3, 5], [2, 6]]),
}


def test_edges_through_lists_each_edge_at_each_vertex():
    through = _edges_through(MIXED)
    assert through[0] == []
    for v in MIXED.vertices:
        want = sorted(sum(1 << u for u in e) for e in MIXED.edges if v in e)
        assert sorted(through[v]) == want


@pytest.mark.parametrize("colors", [3, 4, None], ids=["3", "4", "n"])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_canonical_colorings_match_reference(name, colors):
    H = SMALL[name]
    t = colors or H.n
    budget, ref_budget = SearchBudget(), SearchBudget()
    got = list(_canonical_colorings(H, t, budget))
    want = list(_reference_canonical_colorings(H, t, ref_budget))
    assert got == want
    assert budget.nodes == ref_budget.nodes
    assert name != "mixed" or got == []  # the singleton edge closes in every class


def _corpus(function, H, colors, seed, count):
    """``count`` seeded colorings, or the error; then the generator state."""
    rng = random.Random(seed)
    try:
        out = [function(H, colors, rng) for _ in range(count)]
    except ValueError as exc:
        out = str(exc)
    return out, rng.getstate()


@pytest.mark.parametrize(
    "H, colors, seed, count",
    [
        (usual_kneser(8, 2, 2), 8, 0, 20),
        (usual_kneser(8, 2, 2), 6, 1, 5),
        (usual_kneser(7, 2, 3), 4, 2, 20),
    ],
    ids=["KG82-8", "KG82-6", "KG372-4"],
)
def test_random_proper_coloring_matches_reference_on_kneser(H, colors, seed, count):
    got = _corpus(random_proper_coloring, H, colors, seed, count)
    assert got == _corpus(_reference_random_proper_coloring, H, colors, seed, count)
    assert isinstance(got[0], list)


@pytest.mark.parametrize("colors", [3, 4, None], ids=["3", "4", "n"])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_random_proper_coloring_matches_reference(name, colors):
    H = SMALL[name]
    t = colors or H.n
    for seed in range(3):
        got = _corpus(random_proper_coloring, H, t, seed, 5)
        assert got == _corpus(_reference_random_proper_coloring, H, t, seed, 5)


@pytest.mark.parametrize("name", ["K4", "C5", "petersen"])
def test_certify_local_uses_first_optimal_coloring(name):
    """One sweep gives the report the former second pass gave: the first
    canonical coloring whose local palette is the minimum."""
    H = SMALL[name]
    palette = _local_palettes(H)
    sweep = list(_reference_canonical_colorings(H, H.n, SearchBudget()))
    chi_l = min(map(palette, sweep))
    c = Coloring(next(a for a in sweep if palette(a) == chi_l), palette_size=H.n)
    rep = certify_local(H, 2)
    assert rep.chi_local == chi_l
    witness = find_colorful_balanced(H, c, 2, rep.t)
    assert rep.witness == witness
    assert rep.case_certificate == _reenact_cases(H, c, witness, 2, rep.t)
    assert rep.case_certificate.ok


def _independent(H, mask):
    return not any(all(mask >> v & 1 for v in e) for e in H.edges)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_independence_and_chromatic_match_brute_force(name):
    H = SMALL[name]
    subsets = range(0, 1 << (H.n + 1), 2)  # bit v for vertex v
    alpha = max(bin(m).count("1") for m in subsets if _independent(H, m))
    assert independence_number(H) == alpha
    chi = chromatic_number(H)
    if name == "mixed":
        assert chi.value == float("inf")
        return
    proper = (
        t
        for t in itertools.count(1)
        for a in itertools.product(range(t), repeat=H.n)
        if all(len({a[v - 1] for v in e}) > 1 for e in H.edges)
    )
    assert chi.value == next(proper)
