import itertools
import random

import pytest

from hyperchrom import gindex
from hyperchrom.complexes import (
    GPoset,
    barycentric_subdivision,
    beat_core,
    box_complex,
    hom_poset,
    q_poset,
    sigma_complex,
    zp_join,
)
from hyperchrom.gindex import (
    LabeledSimplex,
    canonical_sign,
    check_join_embedding,
    check_order_map,
    check_simplicial_map,
    ind_bounds,
    value_l,
    value_l_bruteforce,
    xind_exact,
)
from hyperchrom.hypergraph import (
    BudgetExhausted,
    SearchBudget,
    build_hypergraph,
    complete_hypergraph,
    kneser,
    usual_kneser,
)


def k(n):
    return kneser(complete_hypergraph(n, 1), 2)


def petersen():
    return kneser(complete_hypergraph(5, 2), 2)


def c5():
    return build_hypergraph(5, [(i, i % 5 + 1) for i in range(1, 6)])


def all_labeled_simplices(p, m):
    univ = [(e, j) for e in range(p) for j in range(1, m + 1)]
    for size in range(len(univ) + 1):
        for s in itertools.combinations(univ, size):
            try:
                yield LabeledSimplex(frozenset(s), p, m)
            except ValueError:
                pass  # a level carrying all p residues


def test_labeled_simplex_rejects_full_column():
    with pytest.raises(ValueError):
        LabeledSimplex(frozenset({(0, 1), (1, 1)}), 2, 3)


def test_value_l_closed_form_matches_brute_force():
    for p in (2, 3):
        for m in (1, 2, 3, 4):
            for tau in all_labeled_simplices(p, m):
                if tau.labels:
                    assert value_l(tau)[0] == value_l_bruteforce(tau)


def test_canonical_sign_equivariance():
    for p in (2, 3, 5):
        for m in (1, 2):
            for tau in all_labeled_simplices(p, m):
                sizes = {len(tau.part(e)) for e in range(p)}
                if not tau.labels or len(sizes) != 1:
                    continue
                s = canonical_sign(tau)
                for g in range(1, p):
                    assert canonical_sign(tau.rotate(g)) == (s + g) % p


def test_canonical_sign_on_subsets():
    for p in (2, 3, 5):
        for size in range(1, p):
            for s in itertools.combinations(range(p), size):
                bar = frozenset(s)
                s0 = canonical_sign(bar, p)
                rot = frozenset((e + 1) % p for e in bar)
                assert canonical_sign(rot, p) == (s0 + 1) % p


# cross-index of the target posets themselves: Xind(Q_{n,p}) = n
@pytest.mark.parametrize("n, p", [(0, 2), (1, 2), (2, 2), (1, 3)])
def test_xind_of_q_poset(n, p):
    P = q_poset(n, p)
    res = xind_exact(P)
    assert res.value == n
    assert check_order_map(P, res.witness, n)


# hom-poset cross-indices frozen from exhaustive equivariant search
@pytest.mark.parametrize(
    "G, expect", [(k(2), 0), (k(4), 2)]
)
def test_xind_hom_small(G, expect):
    P = hom_poset(G, 2, 2)
    res = xind_exact(P)
    assert res.value == expect
    assert check_order_map(P, res.witness, expect)


def test_xind_hom_petersen():
    res = xind_exact(hom_poset(petersen(), 2, 2))
    assert res.value == 1


# (poset, Xind): the cover CNF that _search_order_map builds and the
# comparable-pair CNF of the reference encoder agree at every n up to the
# value, and every map they return preserves the whole order
@pytest.mark.parametrize(
    "make, value",
    [
        pytest.param(lambda: hom_poset(k(2), 2, 2), 0, id="hom-K2-p2"),
        pytest.param(lambda: hom_poset(k(4), 2, 2), 2, id="hom-K4-p2"),
        pytest.param(lambda: hom_poset(c5(), 2, 2), 1, id="hom-C5-p2"),
        # the Petersen graph is KG(5,2)
        pytest.param(lambda: hom_poset(petersen(), 2, 2), 1, id="hom-petersen-p2"),
        pytest.param(lambda: hom_poset(k(4), 2, 3), 1, id="hom-K4-p3"),
        *[
            pytest.param(lambda n=n, p=p: q_poset(n, p), n, id=f"q-{n}-{p}")
            for p in (2, 3, 5)
            for n in range(4)
        ],
    ],
)
def test_cover_encoding_equisatisfiable(make, value, full_pair_order_map):
    P = make()
    for n in range(value + 1):
        maps = [gindex._search_order_map(P, n), full_pair_order_map(P, n)]
        assert [psi is not None for psi in maps] == [n == value] * 2
        for psi in maps:
            assert psi is None or check_order_map(P, psi, n)


def test_cover_encoding_equisatisfiable_kg62_n0(full_pair_order_map):
    # n = 1 is left out: the comparable-pair CNF takes about 6 s there
    P = hom_poset(usual_kneser(6, 2, 2), 2, 2)
    assert gindex._search_order_map(P, 0) is None
    assert full_pair_order_map(P, 0) is None


def test_ind_bounds_join_and_sigma():
    iv = ind_bounds(zp_join(2, 2))
    assert (iv.lower, iv.upper) == (1, 1)
    iv = ind_bounds(sigma_complex(2, 2, 1))
    assert (iv.lower, iv.upper) == (0, 0)


def test_ind_bounds_box_k2():
    iv = ind_bounds(box_complex(k(2), 2), depth=1)
    assert (iv.lower, iv.upper) == (1, 1)


def test_ind_bounds_box_petersen():
    iv = ind_bounds(box_complex(petersen(), 2))
    assert iv.lower == 2  # 5 - alt_2(K_5^2) - 1
    assert iv.upper >= iv.lower
    assert iv.certificates


def checked_xind(P):
    res = xind_exact(P)
    assert check_order_map(P, res.witness, res.value)
    return res.value


def checked_ind(K, depth=0):
    iv = ind_bounds(K, depth=depth)
    for cert in iv.certificates:
        if cert.kind == "explicit-map":
            d, phi = cert.witness
            level = K
            for _ in range(d):
                level = barycentric_subdivision(level)
            assert check_simplicial_map(level, phi, cert.bound)
    return iv.lower, iv.upper


# p >= 3 values frozen from the arc-consistency backtracker that the SAT
# encoding replaced
@pytest.mark.parametrize(
    "compute, expect",
    [
        (lambda: checked_ind(box_complex(usual_kneser(5, 2, 2), 3)), (1, 2)),
        (lambda: checked_ind(box_complex(usual_kneser(6, 2, 2), 3)), (2, 3)),
        (lambda: checked_ind(box_complex(usual_kneser(5, 3, 2), 3)), (0, 0)),
        (lambda: checked_xind(hom_poset(usual_kneser(6, 2, 2), 2, 3)), 0),
        (lambda: checked_xind(hom_poset(k(4), 2, 3)), 1),
        *[
            (lambda n=n, p=p: checked_xind(q_poset(n, p)), n)
            for p in (3, 5)
            for n in range(4)
        ],
        (lambda: checked_ind(sigma_complex(3, 3, 1), depth=1), (1, 1)),
        (lambda: checked_ind(zp_join(3, 3)), (2, 2)),
    ],
)
def test_odd_prime_values_and_witnesses(compute, expect):
    assert compute() == expect


@pytest.mark.parametrize("G, p", [(petersen(), 2), (k(4), 3)])
def test_map_search_honours_budget(G, p):
    with pytest.raises(BudgetExhausted):
        xind_exact(hom_poset(G, 2, p), budget=SearchBudget(max_nodes=1))


def _moving_one_sign(search):
    """``search`` with the residue of one element of its map shifted,
    which breaks equivariance."""

    def tampered(X, n, budget=None):
        found = search(X, n, budget)
        if found is not None:
            found = dict(found)
            x = next(iter(found))
            e, l = found[x]
            found[x] = ((e + 1) % X.p, l)
        return found

    return tampered


def test_tampered_order_map_is_refused(monkeypatch):
    monkeypatch.setattr(
        gindex, "_search_order_map", _moving_one_sign(gindex._search_order_map)
    )
    with pytest.raises(RuntimeError, match="internal error"):
        xind_exact(hom_poset(petersen(), 2, 2))


def test_missing_order_map_at_height_is_internal_error(monkeypatch):
    # (sign, height) is an order map for n = height - 1, so a search that
    # finds none there is broken, not a poset whose Xind exceeds the range
    monkeypatch.setattr(gindex, "_search_order_map", lambda P, n, budget=None: None)
    with pytest.raises(RuntimeError, match="internal error"):
        xind_exact(q_poset(2, 2))


def test_dropped_cover_is_refused(monkeypatch):
    # Q_{1,2} needs the covers (e, 1) < (e + 1, 2): without them one level
    # with one sign per orbit satisfies the CNF, which check_order_map
    # must refuse instead of reporting Xind = 0; the order is derived
    # before the covers are replaced, so the checker still sees it
    P = q_poset(1, 2)
    order = P.above
    same_sign = tuple(
        frozenset(y for y in ups if P.labels[y][0] == P.labels[x][0])
        for x, ups in enumerate(P.covers)
    )
    assert same_sign != P.covers
    monkeypatch.setitem(vars(P), "covers", same_sign)
    assert P.above is order
    with pytest.raises(RuntimeError, match="internal error"):
        xind_exact(P)


def test_tampered_simplicial_map_is_refused(monkeypatch):
    monkeypatch.setattr(
        gindex,
        "_search_simplicial_map",
        _moving_one_sign(gindex._search_simplicial_map),
    )
    with pytest.raises(RuntimeError, match="internal error"):
        ind_bounds(box_complex(petersen(), 2))


def test_tampered_join_embedding_is_refused(monkeypatch):
    search = gindex._search_join_embedding

    def dropping_a_coordinate(K, size_cap, budget=None):
        m, coords = search(K, size_cap, budget)
        return m, coords[:-1]

    monkeypatch.setattr(gindex, "_search_join_embedding", dropping_a_coordinate)
    with pytest.raises(RuntimeError, match="internal error"):
        ind_bounds(zp_join(2, 2))


# posets on which xind_exact searches the beat-point core; the core sizes
# are pinned in tests/test_complexes.py
CORED_CASES = [
    *[
        pytest.param(lambda G=G, p=p: hom_poset(G(), 2, p), id=f"hom-{name}-p{p}")
        for name, G in [
            ("K4", lambda: k(4)),
            ("C5", c5),
            ("petersen", petersen),
            ("KG62", lambda: usual_kneser(6, 2, 2)),
        ]
        for p in (2, 3)
    ],
    *[
        pytest.param(lambda n=n, p=p: q_poset(n, p), id=f"q-{n}-{p}")
        for n in range(4)
        for p in (2, 3)
    ],
]


@pytest.mark.parametrize("make", CORED_CASES)
def test_cored_xind_matches_uncored_search(make, uncored_xind):
    P = make()
    res = xind_exact(P)
    assert res.value == uncored_xind(P)
    assert res.core == len(beat_core(P)[0])
    assert res.n_max == P.height() - 1
    assert res.witness is None or check_order_map(P, res.witness, res.value)


def _random_graphs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 7)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.6]
        yield build_hypergraph(n, edges)


@pytest.mark.parametrize("p", [2, 3])
def test_cored_xind_matches_uncored_search_on_random_graphs(p, uncored_xind):
    shrunk = 0
    for G in _random_graphs(seed=p, count=40):
        P = hom_poset(G, 2, p)
        res = xind_exact(P)
        assert res.value == uncored_xind(P)
        assert res.witness is None or check_order_map(P, res.witness, res.value)
        shrunk += res.core < len(P)
    assert shrunk  # the set reaches the retraction, not only bare posets


def _tampered_core(tamper):
    """``beat_core`` with its retraction passed through ``tamper(P, C, r)``."""

    def tampered(P):
        C, r = beat_core(P)
        return C, tamper(P, C, list(r))

    return tampered


def _removed(P, C):
    """The elements of P outside its core, in index order."""
    core = set(C.labels)
    return [x for x in range(len(P)) if P.labels[x] not in core]


def _dropping_the_shift(P, C, r):
    # the orbit of the first removed element all goes where it goes
    x = _removed(P, C)[0]
    for k in range(1, P.p):
        r[P.act(k, x)] = r[x]
    return r


def _onto_an_incomparable_element(P, C, r):
    # a removed x below its image c goes to w.c instead, which is not
    # comparable to x; the orbit moves with it, so r stays equivariant, but
    # x < c now gets c's level with another sign
    index = {lab: y for y, lab in enumerate(P.labels)}
    for x in _removed(P, C):
        c = r[x]
        moved = index[C.labels[C.act(1, c)]]
        incomparable = moved not in P.above[x] and x not in P.above[moved]
        if index[C.labels[c]] in P.above[x] and incomparable:
            for k in range(P.p):
                r[P.act(k, x)] = C.act(k + 1, c)
            return r
    raise AssertionError("no removed element fits the tampering")


@pytest.mark.parametrize("tamper", [_dropping_the_shift, _onto_an_incomparable_element])
def test_tampered_retraction_is_refused(monkeypatch, tamper):
    monkeypatch.setattr(gindex, "beat_core", _tampered_core(tamper))
    with pytest.raises(RuntimeError, match="internal error"):
        xind_exact(hom_poset(petersen(), 2, 2))


def test_non_free_poset_is_refused():
    # the fixed element a is below the orbit {b, w.b}, whose elements are
    # beat points that retract onto a: the core {a} is not free either
    P = GPoset(("a", "b", "w.b"), (frozenset({1, 2}), frozenset(), frozenset()), 2, (0, 2, 1))
    assert len(beat_core(P)[0]) == 1
    with pytest.raises(ValueError, match="not free"):
        xind_exact(P)


def test_ind_bounds_rejects_negative_depth():
    with pytest.raises(ValueError, match="depth must be at least 0, got -1"):
        ind_bounds(zp_join(2, 2), depth=-1)


def _reference_canonical_sign(x, p=None):
    """The former sign function: rotation keys by +k for a simplex, with
    a second pass for the index of the least one."""
    if isinstance(x, LabeledSimplex):
        nonzero = [s for s in x.sizes() if s]
        if not nonzero or len(set(nonzero)) != 1:
            raise ValueError("not in W: nonzero class sizes must be equal")
        keys = [tuple(sorted(x.rotate(k).labels)) for k in range(x.p)]
        least = min(keys)
        if keys.count(least) != 1:
            raise ValueError("rotation orbit is not free")
        return next(
            j for j in range(x.p) if tuple(sorted(x.rotate(-j).labels)) == least
        )
    if p is None:
        raise ValueError("p is required for subset inputs")
    s = frozenset(x)
    if not s or len(s) >= p or not all(0 <= e < p for e in s):
        raise ValueError("expected a proper nonempty subset of residues")
    keys = [tuple(sorted(frozenset((e - j) % p for e in s))) for j in range(p)]
    least = min(keys)
    if keys.count(least) != 1:
        raise ValueError("rotation orbit is not free")
    return keys.index(least)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def test_canonical_sign_matches_reference():
    in_w = 0
    for p in (2, 3):
        for m in (1, 2):
            for tau in all_labeled_simplices(p, m):
                got = _outcome(canonical_sign, tau)
                assert got == _outcome(_reference_canonical_sign, tau)
                in_w += isinstance(got, int)
    assert in_w
    for p in (2, 3, 5):
        for size in range(0, p + 1):
            for s in itertools.combinations(range(p), size):
                assert _outcome(canonical_sign, s, p) == _outcome(_reference_canonical_sign, s, p)
    for bad in [((0, 2), 2), ((0,), None)]:
        assert _outcome(canonical_sign, *bad) == _outcome(_reference_canonical_sign, *bad)


def _twist_search(K, size_cap):
    """The former embedding search, over (vertex, twist) coordinates: the
    join vertex (eps, i) maps to w^{eps + twist_i} applied to vertex i,
    with the first twist pinned to 0."""
    p = K.p
    reps = gindex._complex_orbit_structure(K)[0]
    best = [(-1, None)]

    def consistent(coords):
        k = len(coords)
        for signs in itertools.product(range(p), repeat=k):
            simplex = frozenset(K.act(signs[i] + t, v) for i, (v, t) in enumerate(coords))
            if len(simplex) < k or not K.is_simplex(simplex):
                return False
        return True

    def rec(coords, next_rep):
        if len(coords) - 1 > best[0][0]:
            best[0] = (len(coords) - 1, tuple(coords))
        if len(coords) >= size_cap + 1:
            return
        for a in range(next_rep, len(reps)):
            for t in (0,) if not coords else range(p):
                cand = coords + [(reps[a], t)]
                if consistent(cand):
                    rec(cand, a + 1)

    rec([], 0)
    return best[0]


def _embedding_cases():
    for p, sizes, count in [(2, (3, 7), 30), (3, (3, 7), 30), (5, (3, 4), 12)]:
        rng = random.Random(p)
        for _ in range(count):
            n = rng.randint(*sizes)
            edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.6]
            if edges:  # an edgeless graph has no uniformity
                yield box_complex(build_hypergraph(n, edges), p)
    for p in (2, 3, 5):
        yield box_complex(petersen(), p)
        for n in range(1, 4):
            yield zp_join(p, n)


def test_orbit_embedding_matches_twist_search():
    embedded = 0
    for K in _embedding_cases():
        cap = min(gindex._MAX_EMBED_DIM, K.dim)
        m_ref, coords = _twist_search(K, cap)
        m, reps = gindex._search_join_embedding(K, cap)
        assert m == m_ref
        if coords is None:
            assert reps is None
            continue
        assert all(t == 0 for _, t in coords)
        assert reps == tuple(v for v, _ in coords)
        assert check_join_embedding(K, reps, m)
        embedded += m >= 1
    assert embedded


def test_broken_orbit_embedding_is_refused(monkeypatch):
    K = box_complex(c5(), 2)
    search = gindex._search_join_embedding
    m, reps = search(K, K.dim)
    assert m == 1 and check_join_embedding(K, reps, m)
    # (0, 3) is in neither orbit of reps, and the transversal {(0, 1), (1, 3)}
    # of its orbit and reps[0]'s is no simplex: 1 and 3 are not adjacent
    assert reps[0] == (0, 1) and (0, 3) not in {K.act(1, reps[1]), reps[1]}
    assert K.is_simplex({(0, 1), (0, 3)}) and not K.is_simplex({(0, 1), (1, 3)})
    broken = (*reps[:-1], (0, 3))
    assert not check_join_embedding(K, broken, m)

    monkeypatch.setattr(gindex, "_search_join_embedding", lambda K, cap, budget=None: (m, broken))
    with pytest.raises(RuntimeError, match="internal error"):
        ind_bounds(K)


@pytest.mark.parametrize(
    "make",
    [lambda: box_complex(petersen(), 2), lambda: box_complex(usual_kneser(6, 2, 2), 3)],
    ids=["petersen-p2", "KG62-p3"],
)
def test_ind_bounds_honours_budget(make):
    with pytest.raises(BudgetExhausted):
        ind_bounds(make(), budget=SearchBudget(max_nodes=1))
