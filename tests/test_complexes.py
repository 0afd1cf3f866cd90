import itertools

import pytest

from hyperchrom.complexes import (
    GPoset,
    SimplicialGComplex,
    barycentric_subdivision,
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
    ],
)
def test_covers_match_pairwise_definition(make):
    P = make()
    assert P.covers == tuple(
        frozenset(j for j in P.above[i] if _covers(P, i, j)) for i in range(len(P))
    )
