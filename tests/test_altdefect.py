import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchrom.altdefect import (
    Ordering,
    SignedVector,
    alt_min,
    alt_of_vector,
    alt_sigma,
    colorability_defect,
    signed_vectors,
)
from hyperchrom.hypergraph import complete_hypergraph


def vec(entries, p=2):
    return SignedVector(tuple(entries), p)


def test_alt_of_vector_examples():
    assert alt_of_vector(vec((1, 2, 1))) == 3
    assert alt_of_vector(vec((1, 1, 0))) == 1
    assert alt_of_vector(vec((0, 0, 0))) == 0
    assert alt_of_vector(vec((1, 0, 2, 0, 1))) == 3
    assert alt_of_vector(vec((1, 2, 3, 1), p=3)) == 4


def test_signed_vector_relations():
    x = vec((1, 0, 0))
    y = vec((1, 2, 0))
    assert x.issubset(y)
    assert not y.issubset(x)
    assert y.rotate(1).entries == (2, 1, 0)
    assert y.rotate(2) == y
    assert y.sign_class(2) == frozenset({2})


def test_signed_vectors_count():
    assert sum(1 for _ in signed_vectors(3, 2)) == 3**3 - 1
    assert sum(1 for _ in signed_vectors(2, 3)) == 4**2 - 1


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda p: st.tuples(
            st.just(p), st.lists(st.integers(0, p), min_size=1, max_size=7)
        )
    ),
    st.integers(0, 4),
)
def test_alt_invariant_under_rotation(pe, k):
    p, entries = pe
    X = SignedVector(tuple(entries), p)
    assert alt_of_vector(X.rotate(k)) == alt_of_vector(X)


def test_alt_sigma_identity_on_k52():
    F = complete_hypergraph(5, 2)
    sigma = Ordering(tuple(range(1, 6)))
    assert alt_sigma(F, 2, sigma) == 2


# alternation identity alt_p(K_n^k) = p(k-1), checked by exhaustion here
@pytest.mark.parametrize(
    "n, k, p", [(5, 2, 2), (6, 2, 2), (7, 2, 3), (5, 3, 2)]
)
def test_alt_min_complete_uniform(n, k, p):
    res = alt_min(complete_hypergraph(n, k), p)
    assert res.exact
    assert res.value == p * (k - 1)
    # the reported ordering realizes the minimum
    assert alt_sigma(complete_hypergraph(n, k), p, res.ordering) == res.value


# defect values confirmed by the removal definition directly
@pytest.mark.parametrize(
    "n, k, p, expect",
    [(6, 2, 2, 4), (7, 2, 3, 4), (7, 3, 2, 3), (5, 2, 2, 3)],
)
def test_colorability_defect(n, k, p, expect):
    assert colorability_defect(complete_hypergraph(n, k), p) == expect


@pytest.mark.parametrize("n, k, p", [(5, 2, 2), (6, 2, 2), (5, 3, 2)])
def test_vertices_minus_alt_equals_defect(n, k, p):
    F = complete_hypergraph(n, k)
    assert F.n - alt_min(F, p).value == colorability_defect(F, p)


@pytest.mark.parametrize(
    "n, p", [(n, p) for n in (1, 2, 3) for p in (2, 3, 4, 5)] + [(4, 3)]
)
def test_signed_order_sup_matches_pairwise_scan(n, p):
    # sup fills zero entries; the definition tests every ordered pair
    from hyperchrom.altdefect import _signed_order

    order = _signed_order(n, p)
    vectors = order.vectors
    assert order.sup == tuple(
        tuple(w for w, Y in enumerate(vectors) if w != v and X.issubset(Y))
        for v, X in enumerate(vectors)
    )
    # sub inverts sup, in lexicographic order
    assert order.sub == tuple(
        tuple(v for v, ys in enumerate(order.sup) if w in ys)
        for w in range(len(vectors))
    )
