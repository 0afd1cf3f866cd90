import itertools
import random

import pytest

from hyperchrom.complexes import (
    GPoset,
    SimplicialGComplex,
    barycentric_subdivision,
    beat_core,
    box_complex,
    hom_poset,
    join,
    order_complex,
    orbit_decomposition,
    q_poset,
    sigma_complex,
    signed_vector_poset,
    sigma_simplex,
    zp_join,
)
from hyperchrom.hypergraph import (
    _neighbour_masks,
    build_hypergraph,
    complete_hypergraph,
    kneser,
    usual_kneser,
)


def petersen():
    return kneser(complete_hypergraph(5, 2), 2)


def k(n):
    return kneser(complete_hypergraph(n, 1), 2)


def test_zp_join_shape():
    T = zp_join(2, 2)
    assert len(T.vertices) == 4
    assert T.dim == 1
    assert T.is_free()
    assert T.closed_under_action()
    assert zp_join(3, 2).dim == 1
    assert len(zp_join(3, 2).maximal_simplices) == 9


def test_sigma_simplex():
    s = sigma_simplex(3, 2)  # all 2-subsets of a 3-point set
    assert s.dim == 1
    assert len(s.maximal_simplices) == 3


def test_join_dim_adds():
    a = zp_join(2, 1)
    b = zp_join(2, 1)
    j = join(a, b)
    assert j.dim == a.dim + b.dim + 1


def test_barycentric_subdivision_of_triangle_boundary():
    s = sigma_simplex(3, 2)
    sd = barycentric_subdivision(s)
    # the 6-cycle: 6 vertices, 6 edges
    assert len(sd.vertices) == 6
    assert len(sd.maximal_simplices) == 6
    assert sd.dim == 1


def test_box_complex_k2_is_free_four_cycle():
    B = box_complex(k(2), 2)
    assert len(B.vertices) == 4
    assert B.dim == 1
    assert len(B.maximal_simplices) == 4
    assert B.is_free()
    assert B.closed_under_action()
    assert B.provenance[0] == "box"


def test_box_complex_petersen_free():
    B = box_complex(petersen(), 2)
    assert B.is_free()
    assert B.closed_under_action()


# hom poset sizes computed independently by brute-force graph
# homomorphism counting
@pytest.mark.parametrize(
    "G, size",
    [(k(2), 2), (k(3), 12), (k(4), 50)],
)
def test_hom_poset_sizes(G, size):
    P = hom_poset(G, 2, 2)
    assert len(P) == size
    assert P.is_free()
    assert P.action_preserves_order()


def test_hom_poset_petersen_size():
    P = hom_poset(petersen(), 2, 2)
    assert len(P) == 110


def test_hom_poset_triangles_in_kg62():
    # 3-partite complete subgraphs of KG(6,2) are ordered triangles
    P = hom_poset(usual_kneser(6, 2, 2), 2, 3)
    assert len(P) == 90
    assert P.height() == 1  # antichain


def test_q_poset_order_complex_is_cycle():
    P = q_poset(1, 2)
    assert len(P) == 4
    C = order_complex(P)
    assert len(C.vertices) == 4
    assert C.dim == 1
    assert len(C.maximal_simplices) == 4


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_q_poset_matches_definition(n, p):
    # (eps, i) < (eps', j) iff i < j, over Z_p x [n + 1]
    P = q_poset(n, p)
    assert sorted(P.labels) == [(eps, i) for eps in range(p) for i in range(1, n + 2)]
    assert P.above == tuple(
        frozenset(y for y, (_, j) in enumerate(P.labels) if i < j) for _, i in P.labels
    )
    assert [P.labels[P.generator[x]] for x in range(len(P))] == [
        ((eps + 1) % p, i) for eps, i in P.labels
    ]


def test_sigma_complex_shapes():
    assert len(sigma_complex(2, 2, 1).vertices) == 2
    assert sigma_complex(2, 2, 1).dim == 0
    assert len(sigma_complex(2, 2, 0).vertices) == 8
    assert sigma_complex(2, 2, 0).is_free()


def test_orbit_decomposition_free():
    B = box_complex(k(2), 2)
    orbits, free = orbit_decomposition(B)
    assert free
    assert len(orbits) == 2
    assert all(len(o) == 2 for o in orbits)


def test_gposet_height_and_action():
    P = q_poset(2, 2)
    assert P.height() == 3
    x = 0
    assert P.act(2, x) == x  # involution


def c5():
    return build_hypergraph(5, [(i, i % 5 + 1) for i in range(1, 6)])


def _joins(H, parts, eps, v):
    """Every r-set that takes v and one vertex from each of r - 1 other
    nonempty parts is an edge of H."""
    others = [part for i, part in enumerate(parts) if i != eps and part]
    return all(
        frozenset(combo) | {v} in H.edge_set()
        for chosen in itertools.combinations(others, H.uniformity - 1)
        for combo in itertools.product(*chosen)
    )


def _reference_families(H, p):
    """Every family of p disjoint parts (empty parts allowed) whose
    transversals are edges, vertex by vertex: each vertex goes to no
    part or to a part it joins (the condition is hereditary)."""
    out = []
    parts = [set() for _ in range(p)]

    def rec(v):
        if v > H.n:
            out.append(tuple(frozenset(part) for part in parts))
            return
        rec(v + 1)
        for eps in range(p):
            if _joins(H, parts, eps, v):
                parts[eps].add(v)
                rec(v + 1)
                parts[eps].remove(v)

    rec(1)
    return out


PARTITE_CASES = [
    (k(4), 2),
    (k(4), 3),
    (c5(), 2),
    (c5(), 3),
    (petersen(), 2),
    (petersen(), 3),
    (usual_kneser(5, 2, 2), 2),
    (usual_kneser(5, 2, 2), 3),
    # 3-uniform instances take the general-r feasibility test
    (complete_hypergraph(5, 3), 3),
    (build_hypergraph(6, [(1, 2, 3), (1, 2, 4), (2, 3, 4), (3, 4, 5), (4, 5, 6), (1, 5, 6)]), 3),
]


@pytest.mark.parametrize("H, p", PARTITE_CASES)
def test_hom_poset_matches_pairwise_definition(H, p):
    P = hom_poset(H, H.uniformity, p)
    families = _reference_families(H, p)
    elements = sorted(
        (fam for fam in families if all(fam)),
        key=lambda fam: tuple(sorted(part) for part in fam),
    )
    assert list(P.labels) == elements
    for i, fam in enumerate(elements):
        ups = frozenset(
            j
            for j, other in enumerate(elements)
            if j != i and all(a <= b for a, b in zip(fam, other))
        )
        assert list(P.above[i]) == list(ups)


class _SlotSearch:
    """The unpruned slot search that :class:`complexes._PartiteSearch`
    replaces, kept as the reference for the order of what it yields: it
    visits every feasible family, with empty parts, and re-tests every
    earlier slot at each leaf of ``maximal_families``."""

    def __init__(self, H, p, r):
        self.p = p
        self.r = r
        self.eset = H.edge_set()
        self.adj = _neighbour_masks(H) if r == 2 else None
        self.slots = [(eps, v) for v in H.vertices for eps in range(p)]
        self.parts = [set() for _ in range(p)]
        self.masks = [0] * p
        self.used = 0

    def feasible_add(self, eps, v):
        if self.used >> v & 1:
            return False
        if self.r == 2:
            return not (self.used & ~self.masks[eps]) & ~self.adj[v]
        others = [part for i, part in enumerate(self.parts) if i != eps and part]
        if len(others) < self.r - 1:
            return True
        for chosen in itertools.combinations(others, self.r - 1):
            for combo in itertools.product(*chosen):
                if frozenset(combo) | {v} not in self.eset:
                    return False
        return True

    def _add(self, eps, v):
        self.parts[eps].add(v)
        self.masks[eps] |= 1 << v
        self.used |= 1 << v

    def _remove(self, eps, v):
        self.parts[eps].remove(v)
        self.masks[eps] ^= 1 << v
        self.used ^= 1 << v

    def families(self):
        def rec(start):
            yield tuple(frozenset(part) for part in self.parts)
            for idx in range(start, len(self.slots)):
                eps, v = self.slots[idx]
                if self.feasible_add(eps, v):
                    self._add(eps, v)
                    yield from rec(idx + 1)
                    self._remove(eps, v)

        yield from rec(0)

    def maximal_families(self):
        def rec(start):
            extendable = False
            for idx in range(start, len(self.slots)):
                eps, v = self.slots[idx]
                if self.feasible_add(eps, v):
                    extendable = True
                    self._add(eps, v)
                    yield from rec(idx + 1)
                    self._remove(eps, v)
            if not extendable and not any(
                self.feasible_add(eps, v) for eps, v in self.slots[:start]
            ):
                yield tuple(frozenset(part) for part in self.parts)

        yield from rec(0)


def _slot_search_hom(H, r, p):
    """(labels, above, generator) of hom_poset, from the unpruned search."""
    elements = sorted(
        (fam for fam in _SlotSearch(H, p, r).families() if all(fam)),
        key=lambda fam: tuple(sorted(part) for part in fam),
    )
    index = {fam: i for i, fam in enumerate(elements)}
    holders = {}
    for i, fam in enumerate(elements):
        for eps, part in enumerate(fam):
            for x in part:
                holders.setdefault((eps, x), set()).add(i)
    above = tuple(
        frozenset(set.intersection(*(holders[eps, x] for eps, part in enumerate(fam) for x in part)) - {i})
        for i, fam in enumerate(elements)
    )
    gen = tuple(index[fam[1:] + fam[:1]] for fam in elements)
    return tuple(elements), above, gen


def _slot_search_box(H, p):
    return [
        frozenset((eps, v) for eps in range(p) for v in fam[eps])
        for fam in _SlotSearch(H, p, H.uniformity).maximal_families()
    ]


ORDER_CASES = PARTITE_CASES + [(usual_kneser(6, 2, 2), 2), (usual_kneser(6, 2, 2), 3)]


@pytest.mark.parametrize("H, p", ORDER_CASES)
def test_hom_poset_matches_slot_search(H, p):
    P = hom_poset(H, H.uniformity, p)
    assert (P.labels, P.above, P.generator) == _slot_search_hom(H, H.uniformity, p)


@pytest.mark.parametrize("H, p", ORDER_CASES)
def test_box_complex_matches_slot_search_in_order(H, p):
    assert list(box_complex(H, p).maximal_simplices) == _slot_search_box(H, p)


@pytest.mark.parametrize("H, p", ORDER_CASES)
def test_hom_labels_are_a_function_of_their_sets(H, p):
    for label in hom_poset(H, H.uniformity, p).labels:
        assert repr(label) == repr(tuple(frozenset(sorted(part)) for part in label))


# A 4-uniform case, the first whose narrowing step ANDs links through
# transversals T of two vertices, and K_6^3 at p = 3, where every two
# vertices are partners and the maximality prune's partner test fires.
GENERAL_STEP_CASES = [
    (
        build_hypergraph(
            6, [e for e in itertools.combinations(range(1, 7), 4) if not {1, 2, 3} <= set(e)]
        ),
        5,
    ),
    (complete_hypergraph(6, 3), 3),
]


@pytest.mark.parametrize("H, p", GENERAL_STEP_CASES, ids=["r4-p5", "K63-p3"])
def test_general_step_matches_the_references(H, p):
    test_hom_poset_matches_pairwise_definition(H, p)
    test_hom_poset_matches_slot_search(H, p)
    test_box_complex_matches_slot_search_in_order(H, p)
    test_box_complex_matches_reference_enumeration(H, p)
    test_hom_labels_are_a_function_of_their_sets(H, p)


def test_general_step_cases_have_partners():
    r4, k63 = (H for H, _ in GENERAL_STEP_CASES)
    assert _neighbour_masks(r4)[1:] == [0, 0, 0, 0b1100000, 0b1010000, 0b0110000]
    assert _neighbour_masks(k63)[1:] == [0b1111110 ^ 1 << v for v in k63.vertices]


def test_hom_poset_rejects_mixed_edge_sizes():
    H = build_hypergraph(4, [(1, 2), (2, 3, 4)])
    for r in (2, 3):
        with pytest.raises(ValueError, match="H is not r-uniform"):
            hom_poset(H, r, 2)


def test_hom_poset_of_an_edgeless_hypergraph_is_empty():
    for r in (2, 3):
        assert len(hom_poset(build_hypergraph(4, []), r, r)) == 0


def test_kg72_reach_pins():
    K = usual_kneser(7, 2, 2)
    assert len(box_complex(K, 3).maximal_simplices) == 969
    assert len(hom_poset(K, 2, 3)) == 3150


@pytest.mark.parametrize("H, p", PARTITE_CASES)
def test_box_complex_matches_reference_enumeration(H, p):
    maximal = []
    for fam in _reference_families(H, p):
        used = set().union(*fam)
        if not any(
            _joins(H, fam, eps, v)
            for v in H.vertices
            if v not in used
            for eps in range(p)
        ):
            maximal.append(frozenset((eps, v) for eps in range(p) for v in fam[eps]))
    B = box_complex(H, p)
    assert len(B.maximal_simplices) == len(maximal)
    assert set(B.maximal_simplices) == set(maximal)


def _maximal_chains_from_pairwise_minima(P):
    """Maximal chains of P as order_complex lists them, starting from the
    minimal elements found by testing every pair."""
    n = len(P)
    minimal = [i for i in range(n) if not any(i in P.above[j] for j in range(n))]
    chains = []

    def rec(chain):
        ups = sorted(P.covers[chain[-1]])
        if not ups:
            chains.append(frozenset(chain))
        for j in ups:
            rec(chain + [j])

    for i in minimal:
        rec([i])
    return chains


@pytest.mark.parametrize(
    "make",
    [
        *[
            pytest.param(lambda H=H, p=p: hom_poset(H, H.uniformity, p), id=f"hom-{i}")
            for i, (H, p) in enumerate(ORDER_CASES)
        ],
        *[
            pytest.param(lambda n=n, p=p: q_poset(n, p), id=f"q-{n}-{p}")
            for n in range(4)
            for p in (2, 3)
        ],
    ],
)
def test_order_complex_minima_match_pairwise_test(make):
    P = make()
    assert list(order_complex(P).maximal_simplices) == _maximal_chains_from_pairwise_minima(P)


def _is_beat_point(P, x):
    return len(P.covers[x]) == 1 or sum(x in ups for ups in P.covers) == 1


# (poset, size of its beat-point core)
CORE_CASES = [
    *[
        pytest.param(lambda G=G, p=p: hom_poset(G(), 2, p), size, id=f"hom-{name}-p{p}")
        for name, G, p, size in [
            ("K4", lambda: k(4), 2, 50),
            ("K4", lambda: k(4), 3, 60),
            ("C5", c5, 2, 20),
            ("C5", c5, 3, 0),
            ("petersen", petersen, 2, 50),
            ("petersen", petersen, 3, 0),
            ("KG62", lambda: usual_kneser(6, 2, 2), 2, 260),
            ("KG62", lambda: usual_kneser(6, 2, 2), 3, 90),
            ("KG72", lambda: usual_kneser(7, 2, 2), 3, 1260),
        ]
    ],
    *[
        pytest.param(lambda n=n, p=p: q_poset(n, p), (n + 1) * p, id=f"q-{n}-{p}")
        for n in range(4)
        for p in (2, 3, 5)
    ],
]


def _covers(P, i, j):
    """j covers i: i < j with nothing strictly between."""
    return P.lt(i, j) and not any(P.lt(k, j) for k in P.above[i] if k != j)


@pytest.mark.parametrize(
    "make",
    [
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
            for p in (2, 3, 5)
        ],
        *[
            pytest.param(lambda n=n: signed_vector_poset(n, 2), id=f"signed-{n}-2")
            for n in range(4)
        ],
        # the core's covers come from beat_core's incremental update
        *[
            pytest.param(lambda make=case.values[0]: beat_core(make())[0], id=f"core-{case.id}")
            for case in CORE_CASES
        ],
    ],
)
def test_covers_match_pairwise_definition(make):
    P = make()
    assert P.covers == tuple(
        frozenset(j for j in P.above[i] if _covers(P, i, j)) for i in range(len(P))
    )


@pytest.mark.parametrize("make, size", CORE_CASES)
def test_beat_core_is_an_equivariant_retract(make, size):
    P = make()
    C, r = beat_core(P)
    assert len(C) == size
    assert len(r) == len(P)
    if len(C) == len(P):
        assert C is P
    # C is the induced invariant subposet, in ascending index order
    index = {lab: x for x, lab in enumerate(P.labels)}
    core = [index[lab] for lab in C.labels]
    assert core == sorted(core)
    assert C.above == tuple(
        frozenset(core.index(y) for y in P.above[x] if y in core) for x in core
    )
    assert [core[c] for c in C.generator] == [P.generator[x] for x in core]
    assert not any(_is_beat_point(C, c) for c in range(len(C)))
    # r fixes C, commutes with the action and preserves the order
    assert [r[x] for x in core] == list(range(len(C)))
    for x in range(len(P)):
        assert r[P.act(1, x)] == C.act(1, r[x])
        for y in P.above[x]:
            assert r[x] == r[y] or C.lt(r[x], r[y])


def test_beat_core_composes_the_retraction():
    # Q_{1,2} with orbits a < (0, 1) and b < a below it (and their images
    # under w): (0, 1) has one lower cover a, so its orbit goes to a's; then
    # a has one lower cover b, so (0, 1) ends at b through a
    labels = ((0, 1), (1, 1), (0, 2), (1, 2), "a", "w.a", "b", "w.b")
    covers = (
        frozenset({2, 3}),
        frozenset({2, 3}),
        frozenset(),
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({4}),
        frozenset({5}),
    )
    P = GPoset(labels, covers, 2, (1, 0, 3, 2, 5, 4, 7, 6))
    assert P.above == (
        frozenset({2, 3}),
        frozenset({2, 3}),
        frozenset(),
        frozenset(),
        frozenset({0, 2, 3}),
        frozenset({1, 2, 3}),
        frozenset({0, 2, 3, 4}),
        frozenset({1, 2, 3, 5}),
    )
    C, r = beat_core(P)
    assert C.labels == ((0, 2), (1, 2), "b", "w.b")
    assert C.above == (frozenset(), frozenset(), frozenset({0, 1}), frozenset({0, 1}))
    assert C.generator == (1, 0, 3, 2)
    assert r == (2, 3, 0, 1, 2, 3, 2, 3)


def _reference_signed_vector_poset(n, p, min_alt):
    """(labels, above, generator) from the definition: the vectors with
    alt >= min_alt in lexicographic order, each below the vectors that
    agree with it on its support, without the cached table."""
    from hyperchrom.altdefect import SignedVector, alt_of_vector

    vecs = [
        SignedVector(e, p)
        for e in itertools.product(range(p + 1), repeat=n)
        if any(e) and alt_of_vector(SignedVector(e, p)) >= min_alt
    ]
    idx = {X.entries: i for i, X in enumerate(vecs)}
    above = []
    for X in vecs:
        zeros = [i for i, x in enumerate(X.entries) if x == 0]
        ups = set()
        for fill in itertools.product(range(p + 1), repeat=len(zeros)):
            entries = list(X.entries)
            for i, x in zip(zeros, fill):
                entries[i] = x
            if tuple(entries) != X.entries and tuple(entries) in idx:
                ups.add(idx[tuple(entries)])
        above.append(frozenset(ups))
    gen = tuple(idx[X.rotate(1).entries] for X in vecs)
    return tuple(vecs), tuple(above), gen


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_signed_vector_poset_matches_definition(n, p):
    for min_alt in range(n + 2):
        P = signed_vector_poset(n, p, min_alt)
        assert (P.labels, P.above, P.generator) == _reference_signed_vector_poset(n, p, min_alt)


IS_SIMPLEX_CASES = [
    lambda: box_complex(petersen(), 2),
    lambda: box_complex(usual_kneser(5, 2, 2), 3),
    lambda: box_complex(usual_kneser(5, 3, 2), 3),
    lambda: sigma_complex(3, 3, 1),
    *[lambda p=p, n=n: zp_join(p, n) for p in (2, 3, 5) for n in (1, 2, 3)],
]


@pytest.mark.parametrize("make", IS_SIMPLEX_CASES)
def test_is_simplex_matches_subset_scan(make):
    # the per-vertex masks agree with a subset test against every
    # maximal simplex, on every simplex and on random vertex sets
    K = make()

    def scan(s):
        fs = frozenset(s)
        return not fs or any(fs <= m for m in K.maximal_simplices)

    assert K.is_simplex(()) and K.is_simplex(frozenset())
    assert all(K.is_simplex(s) for s in K.simplices())
    rng = random.Random(len(K.vertices))
    verts = sorted(K.vertices, key=repr)
    outside = ("not a vertex",)
    misses = 0
    for _ in range(2000):
        s = rng.sample(verts, rng.randint(1, min(len(verts), K.dim + 3)))
        assert K.is_simplex(s) == scan(s)
        misses += not scan(s)
        assert not K.is_simplex(s + [outside])
    assert misses > 0
    assert not K.is_simplex([outside])
