import itertools
import math
import random

import pytest

from hyperchrom.colorful import (
    ColorfulWitness,
    ZigzagWitness,
    _search_parts,
    certify_local,
    find_colorful_balanced,
    local_lower_formulas,
    proper_colorings_canonical,
    random_proper_coloring,
    validate_colorful,
    validate_zigzag,
    zigzag_check,
)
from hyperchrom.hypergraph import (
    Coloring,
    Hypergraph,
    PartiteFamily,
    build_hypergraph,
    chromatic_number,
    complete_hypergraph,
    kneser,
    usual_kneser,
)
from hyperchrom.tucker import Verdict


def cycle(n):
    return build_hypergraph(n, [[i, i % n + 1] for i in range(1, n + 1)])


def petersen():
    return kneser(complete_hypergraph(5, 2), 2)


def k(n):
    return kneser(complete_hypergraph(n, 1), 2)


# ---------------------------------------------------------------------------
# colorful balanced subhypergraphs
# ---------------------------------------------------------------------------


def test_petersen_colorful_in_every_canonical_coloring():
    G = petersen()
    colorings = [
        c for c in proper_colorings_canonical(G, 3)
    ]
    assert len(colorings) == 20
    for c in colorings:
        w = find_colorful_balanced(G, c, 2, 3)
        assert isinstance(w, ColorfulWitness)
        assert w.total_size >= 3
        assert validate_colorful(G, c, w).ok


def test_petersen_colorful_random_colorings():
    G = petersen()
    rng = random.Random(7)
    for _ in range(10):
        c = random_proper_coloring(G, 3, rng)
        w = find_colorful_balanced(G, c, 2, 3)
        assert isinstance(w, ColorfulWitness)
        assert validate_colorful(G, c, w).ok


def test_kneser3_colorful():
    H = usual_kneser(7, 2, 3)
    res = chromatic_number(H)
    assert res.value == 2
    w = find_colorful_balanced(H, res.coloring, 3, 4)
    assert isinstance(w, ColorfulWitness)
    assert validate_colorful(H, res.coloring, w, r=3).ok


def test_single_edge_trivial():
    H = Hypergraph(3, (frozenset({1, 2, 3}),), uniformity=3)
    c = Coloring((1, 1, 2), palette_size=2)
    w = find_colorful_balanced(H, c, 3, 2)
    assert isinstance(w, ColorfulWitness)
    assert validate_colorful(H, c, w).ok


def test_unreachable_target_is_counterexample_verdict():
    G = k(2)  # a single graph edge
    c = Coloring((1, 2), palette_size=2)
    v = find_colorful_balanced(G, c, 2, 5)
    assert isinstance(v, Verdict)
    assert v.kind == "counterexample"
    assert "maximum achievable total is 2" in v.detail
    (best,) = v.witness
    assert best.total_size == 2


def test_improper_coloring_rejected():
    G = k(2)
    with pytest.raises(ValueError):
        find_colorful_balanced(G, Coloring((1, 1), palette_size=1), 2, 1)


def test_validate_flags_tampered_witness():
    G = k(2)
    c = Coloring((1, 2), palette_size=2)
    w = find_colorful_balanced(G, c, 2, 2)
    bad = ColorfulWitness(w.parts, (frozenset({9}),) + w.color_sets[1:])
    v = validate_colorful(G, c, bad)
    assert not v.ok and v.detail == "stored colors wrong"


def test_validate_refuses_parts_without_color_sets():
    G = petersen()
    c = random_proper_coloring(G, 3, random.Random(1))
    assert c(6) == c(9)
    w = ColorfulWitness(
        PartiteFamily((frozenset({1}), frozenset({6, 9}))), (frozenset({c(1)}),)
    )
    v = validate_colorful(G, c, w)
    assert not v.ok and v.detail == "one color set per part needed"


def test_bad_search_arguments_rejected():
    G = petersen()
    c = random_proper_coloring(G, 3, random.Random(1))
    with pytest.raises(ValueError, match="target must be nonnegative"):
        find_colorful_balanced(G, c, 2, -1)
    with pytest.raises(ValueError, match="p must be positive"):
        find_colorful_balanced(G, c, 0, 2)
    with pytest.raises(ValueError, match="t must be nonnegative"):
        zigzag_check(G, c, t=-1)


# ---------------------------------------------------------------------------
# zig-zag
# ---------------------------------------------------------------------------


def test_zigzag_k4_identity_coloring():
    G = k(4)
    c = Coloring((1, 2, 3, 4), palette_size=4)
    w = zigzag_check(G, c)  # t = 4
    assert isinstance(w, ZigzagWitness)
    assert {w.side_a, w.side_b} == {frozenset({1, 3}), frozenset({2, 4})}
    assert w.colors == (1, 2, 3, 4)


def test_zigzag_k2():
    w = zigzag_check(k(2), Coloring((1, 2), palette_size=2), t=2)
    assert isinstance(w, ZigzagWitness)


def test_zigzag_petersen_all_canonical_3_colorings():
    G = petersen()
    for c in proper_colorings_canonical(G, 3):
        w = zigzag_check(G, c, t=3)
        assert isinstance(w, ZigzagWitness)
        assert len(w.side_a) == 2 and len(w.side_b) == 1


def test_validate_zigzag_refuses_tampered_witnesses():
    G = k(4)
    c = Coloring((1, 2, 3, 4), palette_size=4)
    w = zigzag_check(G, c, t=4)
    assert validate_zigzag(G, c, w, 4).ok
    A, B = w.side_a, w.side_b
    a, b = min(A), min(B)
    tampered = [
        (4, ZigzagWitness(A, frozenset({a, b}), w.colors), "sides overlap"),
        (4, ZigzagWitness(A, frozenset({b, 5}), w.colors), "vertex out of range"),
        (3, w, "side sizes 2, 2 for t = 3"),
        (
            4,
            ZigzagWitness(frozenset({1, 2}), frozenset({3, 4}), w.colors),
            "colors do not alternate between the sides",
        ),
        (4, ZigzagWitness(A, B, (1, 2, 3, 5)), "stored colors wrong"),
    ]
    for t, bad, detail in tampered:
        v = validate_zigzag(G, c, bad, t)
        assert not v.ok and v.detail == detail
    C4 = cycle(4)  # 1-2-3-4-1
    halves = ZigzagWitness(frozenset({1, 2}), frozenset({3, 4}), (1, 2, 3, 4))
    v = validate_zigzag(C4, c, halves, 4)
    assert not v.ok and v.detail == "not complete bipartite"
    two_colors = Coloring((1, 2, 1, 2), palette_size=2)
    sides = ZigzagWitness(frozenset({1, 3}), frozenset({2, 4}), (1, 1, 2, 2))
    v = validate_zigzag(C4, two_colors, sides, 4)
    assert not v.ok and v.detail == "not rainbow"


def test_searches_refuse_a_witness_that_fails_its_recheck(monkeypatch):
    import hyperchrom.colorful as colorful

    def refuse(*args):
        return Verdict(False, "counterexample", "refused")

    monkeypatch.setattr(colorful, "validate_zigzag", refuse)
    monkeypatch.setattr(colorful, "validate_colorful", refuse)
    G, c = k(4), Coloring((1, 2, 3, 4), palette_size=4)
    with pytest.raises(RuntimeError, match="internal error"):
        zigzag_check(G, c, t=4)
    with pytest.raises(RuntimeError, match="internal error"):
        find_colorful_balanced(G, c, 2, 4)


# ---------------------------------------------------------------------------
# the neighbourhood-restricted searches against exhaustive references
# ---------------------------------------------------------------------------


def reference_zigzag(G, c, t):
    """Every rainbow side A against every side B of the other vertices;
    the first alternating complete bipartite pair, or None."""
    sa, sb = math.ceil(t / 2), t // 2
    eset = G.edge_set()
    verts = sorted(G.vertices)

    def alternates(A, B):
        ranked = sorted([(c(v), 0) for v in A] + [(c(v), 1) for v in B])
        return all(x[1] != y[1] for x, y in zip(ranked, ranked[1:]))

    for A in itertools.combinations(verts, sa):
        colors_a = {c(v) for v in A}
        if len(colors_a) != sa:
            continue
        rest = [v for v in verts if v not in A]
        for B in itertools.combinations(rest, sb):
            colors_b = {c(v) for v in B}
            if len(colors_b) != sb or colors_a & colors_b:
                continue
            if any(frozenset((u, v)) not in eset for u in A for v in B):
                continue
            if alternates(A, B):
                return ZigzagWitness(
                    frozenset(A),
                    frozenset(B),
                    tuple(sorted(colors_a | colors_b)),
                )
    return None


def reference_search_parts(H, c, sizes, r):
    """Every combination of unused vertices for every part in turn."""
    eset = H.edge_set()
    verts = sorted(H.vertices)

    def transversals_ok(parts):
        new = len(parts) - 1
        if len(parts) < r or not parts[new]:
            return True
        pool = [p for p in parts[:new] if p]
        for others in itertools.combinations(pool, r - 1):
            for choice in itertools.product(parts[new], *others):
                if frozenset(choice) not in eset:
                    return False
        return True

    def rec(i, parts, used):
        if i == len(sizes):
            return tuple(parts)
        for combo in itertools.combinations(
            [v for v in verts if v not in used], sizes[i]
        ):
            if len({c(v) for v in combo}) != len(combo):
                continue
            parts.append(frozenset(combo))
            if transversals_ok(parts):
                hit = rec(i + 1, parts, used | set(combo))
                if hit:
                    return hit
            parts.pop()
        return None

    return rec(0, [], set())


def assert_zigzag_matches_reference(G, c, t):
    found = zigzag_check(G, c, t)
    want = reference_zigzag(G, c, t)
    assert (found if isinstance(found, ZigzagWitness) else None) == want, (c, t)
    return want is not None


def test_zigzag_matches_reference_on_kg72():
    G = usual_kneser(7, 2, 2)
    at_t6 = {(6, 0), (6, 2), (8, 0), (8, 1)}  # two hits and two misses
    outcomes = []
    for colors in (5, 6, 7, 8):
        rng = random.Random(colors)
        for i in range(3):
            c = random_proper_coloring(G, colors, rng)
            ts = range(7) if (colors, i) in at_t6 else range(6)
            outcomes += [assert_zigzag_matches_reference(G, c, t) for t in ts]
    assert outcomes.count(False) == 2


def test_zigzag_matches_reference_on_small_graphs():
    graphs = [
        (petersen(), list(proper_colorings_canonical(petersen(), 4)), range(6)),
        (k(4), list(proper_colorings_canonical(k(4), 4)), range(6)),
        (k(2), [Coloring((1, 2), palette_size=2), Coloring((2, 1), palette_size=2)], range(4)),
    ]
    outcomes = set()
    for G, colorings, ts in graphs:
        for c in colorings:
            for t in ts:
                outcomes.add(assert_zigzag_matches_reference(G, c, t))
    assert outcomes == {True, False}


GRAPH_SIZES = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 1, 1), (2, 1, 1)]


def test_search_parts_matches_reference_on_graphs():
    cases = [(petersen(), c) for c in proper_colorings_canonical(petersen(), 3)]
    cases += [(k(4), c) for c in proper_colorings_canonical(k(4), 4)]
    cases += [(k(2), Coloring((1, 2), palette_size=2))]
    G = usual_kneser(7, 2, 2)
    rng = random.Random(3)
    cases += [(G, random_proper_coloring(G, 6, rng)) for _ in range(3)]
    outcomes = set()
    for H, c in cases:
        for sizes in GRAPH_SIZES:
            want = reference_search_parts(H, c, sizes, 2)
            assert _search_parts(H, c, sizes, 2) == want, (c, sizes)
            outcomes.add(want is not None)
    assert outcomes == {True, False}
    # Petersen has girth 5: no C4, no triangle, no K_{3,3}
    for c in proper_colorings_canonical(petersen(), 3):
        for sizes in ((2, 2), (1, 1, 1), (3, 3)):
            assert _search_parts(petersen(), c, sizes, 2) is None


def test_search_parts_matches_reference_at_r3():
    H = usual_kneser(7, 2, 3)
    rng = random.Random(11)
    outcomes = set()
    for _ in range(4):
        c = random_proper_coloring(H, 4, rng)
        for sizes in ((2, 1), (1, 1, 1), (2, 1, 1), (3, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1)):
            want = reference_search_parts(H, c, sizes, 3)
            assert _search_parts(H, c, sizes, 3) == want, (c, sizes)
            outcomes.add(want is not None)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# formulas and certification
# ---------------------------------------------------------------------------


def test_formula_spot_checks():
    f = local_lower_formulas(7, 3, 3)
    assert (f.a, f.b) == (2, 1)
    assert f.bound == 3
    g = local_lower_formulas(3, 2)
    assert g.bound == 3
    assert g.graph_bound == 3
    z = local_lower_formulas(0, 2)
    assert z.degenerate


def test_formula_independence_bound():
    f = local_lower_formulas(3, 2, 2, F=complete_hypergraph(5, 2))
    assert f.independence_bound == 5 - 2 - 1 + 1  # ceil(10/2)=5, alpha=2


def test_formula_validates_arguments():
    with pytest.raises(ValueError):
        local_lower_formulas(-1, 2)
    with pytest.raises(ValueError):
        local_lower_formulas(3, 2, 3)


@pytest.mark.parametrize(
    "H, p, t, bound, chi_l, case",
    [
        (k(4), 2, 4, 3, 4, 1),
        (cycle(5), 2, 3, 3, 3, 1),
        (k(3), 3, 3, 3, 3, None),
        (Hypergraph(3, (frozenset({1, 2, 3}),), uniformity=3), 3, 3, 2, 2, None),
    ],
)
def test_certify_local(H, p, t, bound, chi_l, case):
    rep = certify_local(H, p)
    assert rep.applicable
    assert rep.t == t
    assert rep.formulas.bound == bound
    assert rep.chi_local == chi_l
    assert rep.bound_holds
    assert rep.witness is not None
    assert rep.case_certificate is not None
    assert rep.case_certificate.ok
    if case is not None:
        assert rep.case_certificate.case == case


def test_certify_local_inapplicable_without_clique():
    rep = certify_local(cycle(5), 3)
    assert not rep.applicable
    assert "omega" in rep.detail


# ---------------------------------------------------------------------------
# coloring corpora
# ---------------------------------------------------------------------------


def test_canonical_colorings_are_proper_and_canonical():
    from hyperchrom.hypergraph import is_proper

    G = cycle(5)
    seen = set()
    for c in proper_colorings_canonical(G, 3):
        assert is_proper(G, c)
        vals = tuple(c(v) for v in G.vertices)
        assert vals not in seen
        seen.add(vals)
        # vertex i may introduce at most one color beyond those before it
        assert all(
            vals[i] <= max(vals[:i], default=0) + 1 for i in range(len(vals))
        )


def test_random_proper_coloring_deterministic_per_seed():
    G = petersen()
    a = random_proper_coloring(G, 3, random.Random(99))
    b = random_proper_coloring(G, 3, random.Random(99))
    assert a == b
    from hyperchrom.hypergraph import is_proper

    assert is_proper(G, a)


def test_search_parts_matches_reference_at_r4():
    # 4-uniform, so each new transversal S joins a vertex to two earlier parts
    H = build_hypergraph(
        7,
        [
            e
            for e in itertools.combinations(range(1, 8), 4)
            if not {1, 2, 3} <= set(e) and not {5, 6} <= set(e)
        ],
    )
    colorings = list(proper_colorings_canonical(H, 3))
    outcomes = set()
    for c in colorings[:: len(colorings) // 8]:
        for sizes in ((1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (1, 1, 1, 1, 1), (3, 1, 1, 1)):
            want = reference_search_parts(H, c, sizes, 4)
            assert _search_parts(H, c, sizes, 4) == want, (c, sizes)
            outcomes.add(want is not None)
    assert outcomes == {True, False}
