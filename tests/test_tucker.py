import collections
import dataclasses
import itertools
import math

import pytest

from hyperchrom import tucker
from hyperchrom.altdefect import (
    SignedVector,
    alt_min,
    alt_of_vector,
    signed_orbit_representative,
    signed_vectors,
)
from hyperchrom.complexes import SimplicialGComplex, hom_poset, q_poset, zp_join
from hyperchrom.gindex import LabeledSimplex, xind_exact
from hyperchrom.hypergraph import chromatic_number, complete_hypergraph, kneser
from hyperchrom.tucker import (
    EquivariantLabeling,
    FanChain,
    Verdict,
    check_labeling_conditions,
    colex_key,
    fan_sweep,
    find_fan_chain,
    gamma_case_analysis,
    gamma_collapse,
    gamma_vertex,
    gfan_chain,
    lambda_from_coloring,
    poset_chain,
)


def first_sign_alt(n, p):
    return EquivariantLabeling.from_function(
        n, n, p, lambda X: (next(x for x in X.entries if x), alt_of_vector(X))
    )


# ---------------------------------------------------------------------------
# labeling conditions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_first_sign_alt_is_admissible(n, p):
    lab = first_sign_alt(n, p)
    assert check_labeling_conditions(lab, n).ok


def test_broken_equivariance_flagged():
    lab = first_sign_alt(2, 2)
    table = dict(lab.table)
    X = SignedVector((1, 0), 2)
    table[X] = (2, table[X][1])  # flip one orbit member's sign only
    broken = EquivariantLabeling(2, 2, 2, table)
    v = check_labeling_conditions(broken, 2)
    assert not v.ok
    assert v.detail == "equivariance fails"
    assert v.witness is not None


def test_condition1_violation_flagged():
    # equivariant, but a comparable pair shares a low level with
    # different signs: (1,0) -> (1,1) while (1,1) -> (2,1)
    def f(X):
        if X.entries == (1, 1):
            return (2, 1)
        if X.entries == (2, 2):
            return (1, 1)
        return (next(x for x in X.entries if x), alt_of_vector(X))

    lab = EquivariantLabeling.from_function(2, 2, 2, f)
    v = check_labeling_conditions(lab, 2)
    assert not v.ok
    assert v.detail == "condition 1 fails"


def test_labeling_must_be_total():
    with pytest.raises(ValueError):
        EquivariantLabeling(2, 2, 2, {})


# ---------------------------------------------------------------------------
# fan chains
# ---------------------------------------------------------------------------


def test_fan_chain_n2_alpha0():
    lab = first_sign_alt(2, 2)
    fc = find_fan_chain(lab, 0)
    assert isinstance(fc, FanChain)
    assert len(fc.elements) == 2
    assert fc.elements[0].issubset(fc.elements[1])
    assert fc.labels == ((1, 1), (2, 2))


def test_fan_chain_conclusions_rechecked():
    lab = first_sign_alt(3, 2)
    fc = find_fan_chain(lab, 1)
    assert isinstance(fc, FanChain)
    assert len(fc.elements) == 2
    assert len(set(fc.labels)) == 2
    assert all(j >= 2 for _, j in fc.labels)


def brute_force_admissible(n, m, p, alpha):
    """Every equivariant labeling, (p*m)^R of them for R orbits, that
    check_labeling_conditions passes."""
    reps = sorted(
        {signed_orbit_representative(X) for X in signed_vectors(n, p)},
        key=lambda X: X.entries,
    )
    values = [(eps, j) for eps in range(1, p + 1) for j in range(1, m + 1)]
    for labels in itertools.product(values, repeat=len(reps)):
        lab = EquivariantLabeling.from_rep_assignment(n, m, p, dict(zip(reps, labels)))
        if check_labeling_conditions(lab, alpha).ok:
            yield lab


@pytest.mark.parametrize(
    "n, m, p, alpha",
    [
        (2, 2, 2, 0),
        (2, 2, 2, 1),
        (2, 1, 3, 0),
        (2, 2, 3, 1),
        (2, 2, 2, 5),
        (1, 1, 3, 5),
        # n = 1: the whole sweep is the counted top layer, sign pin included
        (1, 2, 2, 0),
        (1, 3, 2, 1),
    ],
)
def test_sweep_matches_brute_force(n, m, p, alpha):
    # alpha >= n asks for the empty chain, which every labeling has
    admissible = list(brute_force_admissible(n, m, p, alpha))
    assert all(isinstance(find_fan_chain(lab, alpha), FanChain) for lab in admissible)
    rep = fan_sweep(n, m, p, alpha)
    assert rep.admissible == len(admissible) > 0
    assert rep.ok and rep.regime_ok


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
def test_sweep_p2_n3_pinned(alpha):
    rep = fan_sweep(3, 3, 2, alpha)
    assert (rep.admissible, rep.checked) == (22_193_664, 11_096_832)
    assert rep.ok and rep.regime_ok


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_signed_order_tables(n, p):
    order = tucker._signed_order(n, p)
    vectors, reps, top = order.vectors, order.reps, order.top
    size = [len(vectors[v].support()) for v in reps]
    # each rep is the lexicographically least member of its orbit, and
    # code numbers the orbit by rotation
    for v, X in enumerate(vectors):
        i, k = divmod(order.code[v], p)
        assert vectors[reps[i]].rotate(k) == X
        assert reps[i] <= v
    assert len(reps) * p == len(vectors)
    # support sizes never decrease before top; reps[top:] is the layer
    # with the most reps (ties to the larger support), each layer in
    # lexicographic order
    layer = collections.Counter(size)
    assert size[:top] == sorted(size[:top])
    assert set(size[top:]) == {max(layer, key=lambda z: (layer[z], z))}
    for z in layer:
        members = [v for v, zv in zip(reps, size) if zv == z]
        assert members == sorted(members)
    if n == 2:  # the lexicographic order already runs by support size
        assert list(reps) == sorted(reps)
    # the top layer is an antichain: no constraint joins two of its reps
    assert all(a < i and a < top for a, i, _ in order.pairs)
    assert {(a, i) for a, i, _ in order.pairs} == {
        (a, i) for i, cons in enumerate(order.cons) for a, _ in cons
    }


def test_sweep_product_runs_cross_check(monkeypatch):
    # with the pair list emptied the sweep's chain test finds no chain,
    # so find_fan_chain must disagree on the first counted completion
    real = tucker._signed_order(2, 2)
    monkeypatch.setattr(
        tucker, "_signed_order", lambda n, p: dataclasses.replace(real, pairs=())
    )
    with pytest.raises(RuntimeError, match="find_fan_chain found"):
        fan_sweep(2, 2, 2, 0)


@pytest.mark.parametrize("n, m, alpha", [(2, 1, 0), (2, 2, 0), (2, 2, 1), (3, 1, 1), (3, 1, 0)])
def test_sweep_chain_test_matches_find_fan_chain(monkeypatch, n, m, alpha):
    # without the screen the p = 2 sweep visits every equivariant
    # labeling, so its failures must be exactly those on which
    # find_fan_chain finds no chain (half of them: one sign is pinned)
    real = tucker._signed_order(n, 2)
    unscreened = dataclasses.replace(real, cons=tuple(() for _ in real.cons))
    monkeypatch.setattr(tucker, "_signed_order", lambda n, p: unscreened)
    rep = fan_sweep(n, m, 2, alpha)
    reps = [real.vectors[v] for v in real.reps]
    values = [(eps, j) for eps in (1, 2) for j in range(1, m + 1)]
    chainless = 0
    for labels in itertools.product(values, repeat=len(reps)):
        lab = EquivariantLabeling.from_rep_assignment(n, m, 2, dict(zip(reps, labels)))
        chainless += isinstance(find_fan_chain(lab, alpha), Verdict)
    assert rep.admissible == len(values) ** len(reps)
    assert 2 * len(rep.failures) == chainless


def test_sweep_p3():
    rep = fan_sweep(2, 2, 3, 0)
    assert rep.admissible == 7776
    assert rep.ok and rep.regime_ok


def test_vacuity_outside_regime():
    # n - alpha > (p-1)(m-alpha) admits no labeling at all
    rep = fan_sweep(3, 1, 2, 0)
    assert rep.admissible == 0
    assert rep.regime_ok


@pytest.mark.parametrize("n", [2, 3])
def test_classical_tucker_m_must_reach_n(n):
    # p = 2, alpha = 0: an admissible labeling into m = n - 1 levels
    # cannot exist
    assert fan_sweep(n, n - 1, 2, 0).admissible == 0


def test_nonprime_probe_runs():
    # p = 4 at tiny size: the count is pinned, chain outcomes are recorded
    # but not interpreted
    rep = fan_sweep(2, 2, 4, 0)
    assert rep.admissible == 262_144
    assert isinstance(rep.ok, bool)


# ---------------------------------------------------------------------------
# the labeling built from a coloring
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def k52_pipeline():
    F = complete_hypergraph(5, 2)
    res = chromatic_number(kneser(F, 2))
    am = alt_min(F, 2)
    lab = lambda_from_coloring(F, 2, res.coloring, sigma=am.ordering)
    return F, am, lab


def test_lambda_from_coloring_is_admissible(k52_pipeline):
    _, am, lab = k52_pipeline
    assert check_labeling_conditions(lab, am.value).ok


def test_lambda_from_coloring_point_values(k52_pipeline):
    _, _, lab = k52_pipeline
    assert lab(SignedVector((1, 2, 0, 0, 0), 2)) == (1, 2)
    # low-alternation vectors stay in the first regime even when a
    # class contains an edge
    assert lab(SignedVector((1, 1, 0, 0, 0), 2)) == (1, 1)


def test_lambda_from_coloring_chain_length(k52_pipeline):
    F, am, lab = k52_pipeline
    fc = find_fan_chain(lab, am.value)
    assert isinstance(fc, FanChain)
    assert len(fc.elements) == F.n - am.value == 3


def test_lambda_requires_proper_coloring():
    from hyperchrom.hypergraph import Coloring

    F = complete_hypergraph(5, 2)
    with pytest.raises(ValueError):
        lambda_from_coloring(F, 2, Coloring((1,) * 10, palette_size=1))


def test_colex_key_orders_sets():
    assert sorted([{3}, {1, 2}], key=colex_key) == [{1, 2}, {3}]
    assert sorted([{2, 3}, {1, 3}], key=colex_key) == [{1, 3}, {2, 3}]


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------


def lambda_image_complex(n, p):
    def lam(X):
        return (next(x for x in X.entries if x) % p, alt_of_vector(X))

    vecs = list(signed_vectors(n, p))
    chains = set()
    for X in vecs:
        chains.add(frozenset({lam(X)}))
        for Y in vecs:
            if X != Y and X.issubset(Y):
                chains.add(frozenset({lam(X), lam(Y)}))
    verts = sorted({v for ch in chains for v in ch})
    gen = {(e, j): ((e + 1) % p, j) for e, j in verts}
    maximal = [c for c in chains if not any(c < d for d in chains)]
    return SimplicialGComplex(tuple(verts), tuple(maximal), p, gen)


def test_gamma_collapse_on_lambda_image():
    K = lambda_image_complex(2, 2)
    res = gamma_collapse(K, alpha=2)
    assert res.verdict.ok
    assert len(res.mapping) == len(list(K.simplices()))


def test_gamma_vertex_sigma_rule():
    assert gamma_vertex(frozenset({(1, 1), (0, 2)}), 2, 2, 2) == (0, 2)


def test_gamma_l_cap_reports_precondition():
    K = lambda_image_complex(2, 2)
    res = gamma_collapse(K, alpha=0, l_cap=0)
    assert not res.verdict.ok
    assert res.verdict.kind == "precondition"
    assert res.l_cap_hit is not None


def all_labeled_simplices(p, m):
    univ = [(e, j) for e in range(p) for j in range(1, m + 1)]
    for size in range(len(univ) + 1):
        for s in itertools.combinations(univ, size):
            try:
                yield LabeledSimplex(frozenset(s), p, m)
            except ValueError:
                pass


def test_gamma_case_analysis_never_allows_clash():
    seen = set()
    for p, m in [(2, 3), (3, 2)]:
        sims = list(all_labeled_simplices(p, m))
        for a in sims:
            for b in sims:
                if a.labels and a.labels < b.labels:
                    c = gamma_case_analysis(a, b)
                    seen.add(c.case)
                    assert not c.clash_possible, (a, b, c)
    assert {"(i)", "(ii)", "(iii)(a)"} <= seen


def test_gamma_case_iii_b():
    tau = LabeledSimplex(frozenset({(0, 1), (1, 2)}), 2, 4)
    tau2 = LabeledSimplex(
        frozenset({(0, 1), (1, 2), (0, 3), (1, 4)}), 2, 4
    )
    c = gamma_case_analysis(tau, tau2)
    assert c.case == "(iii)(b)"
    assert not c.clash_possible


# ---------------------------------------------------------------------------
# G-Fan and poset chains
# ---------------------------------------------------------------------------


def test_gfan_chain_on_join():
    T = zp_join(2, 2)
    r = gfan_chain(T, {v: v for v in T.vertices}, 1)
    assert isinstance(r, FanChain)
    (g0, j0), (g1, j1) = r.labels
    assert g0 != g1 and j0 < j1


def test_gfan_two_points():
    T = zp_join(2, 1)
    r = gfan_chain(T, {v: v for v in T.vertices}, 0)
    assert isinstance(r, FanChain)
    assert len(r.elements) == 1


def test_gfan_single_level_labelings_all_inadmissible():
    # every equivariant labeling of the free square into one level
    # violates the no-clashing-edge precondition
    T = zp_join(2, 2)
    for g1 in (0, 1):
        for g2 in (0, 1):
            labeling = {
                (0, 1): (g1, 1),
                (1, 1): ((g1 + 1) % 2, 1),
                (0, 2): (g2, 1),
                (1, 2): ((g2 + 1) % 2, 1),
            }
            r = gfan_chain(T, labeling, 1)
            assert isinstance(r, Verdict)
            assert r.kind == "precondition"


def test_poset_chain_q12_alternating():
    P = q_poset(1, 2)
    psi = {i: P.labels[i] for i in range(len(P))}
    r = poset_chain(P, psi, 2, alternating=True)
    assert isinstance(r, FanChain)
    assert r.labels[0][0] != r.labels[1][0]
    assert r.labels[0][1] < r.labels[1][1]


def test_poset_chain_trivial_hom_k2():
    G = kneser(complete_hypergraph(2, 1), 2)
    P = hom_poset(G, 2, 2)
    psi = {i: (0, 1) for i in range(len(P))}
    # make psi equivariant: orbit mates get the rotated sign
    res = xind_exact(P)
    psi = res.witness
    psi = {i: (e, j + 1) for i, (e, j) in psi.items()}
    r = poset_chain(P, psi, 1)
    assert isinstance(r, FanChain)


def test_poset_chain_hom_k4_alternating_length3():
    G = kneser(complete_hypergraph(4, 1), 2)
    P = hom_poset(G, 2, 2)
    res = xind_exact(P)
    assert res.value == 2
    psi = {i: (e, j + 1) for i, (e, j) in res.witness.items()}
    r = poset_chain(P, psi, res.value + 1, alternating=True)
    assert isinstance(r, FanChain)
    assert len(r.elements) == 3
    signs = [e for e, _ in r.labels]
    assert all(a != b for a, b in zip(signs, signs[1:]))


@pytest.mark.parametrize(
    "params, name",
    [
        ((0, 2, 2, 0), "n"),
        ((-1, 2, 2, 0), "n"),
        ((2, -1, 2, 0), "m"),
        ((2, 2, 1, 0), "p"),
        ((2, 2, 0, 0), "p"),
        ((2, 2, 2, -1), "alpha"),
        ((2, 2, 3, -1), "alpha"),
    ],
)
def test_fan_sweep_rejects_out_of_range_parameters(params, name):
    with pytest.raises(ValueError, match=f"^{name} must be at least"):
        fan_sweep(*params)


def test_fan_sweep_accepts_the_smallest_parameters():
    # m = 0 leaves no level to assign, so no labeling
    rep = fan_sweep(1, 0, 2, 0)
    assert (rep.admissible, rep.ok) == (0, True)
    rep = fan_sweep(1, 1, 2, 0)
    assert (rep.admissible, rep.checked, rep.ok) == (2, 1, True)


# ---------------------------------------------------------------------------
# the former p = 2 sweep, kept as a reference for the clash-mask count and
# the chain search through the new representative
# ---------------------------------------------------------------------------


def _reference_fan_sweep_p2(n, m, alpha):
    """fan_sweep(n, m, 2, alpha) as it was: every top option is listed to
    be counted, and every chain test at k >= 3 searches the whole
    labeling."""
    p = 2
    order = tucker._signed_order(n, p)
    R = len(order.reps)
    top = order.top
    k = n - alpha
    eps = [0] * R
    lev = [0] * R
    screened = m
    need = [
        [[(a, (s - d) % p if d >= 0 else -1) for a, d in cons] for s in range(p)]
        for cons in order.cons
    ]
    signs = range(p)
    levels = range(1, m + 1)
    count = 0
    failures = []

    if k == 2:
        pairs = order.pairs
        below = [[] for _ in range(R)]
        for a, i, d in pairs:
            below[i].append((a, d))

        def has_chain():
            for a, i, d in pairs:
                if lev[a] > alpha and lev[i] > alpha and (eps[i] - eps[a]) % p != d:
                    return True
            return False

        def touches(i):
            if lev[i] <= alpha:
                return False
            for a, d in below[i]:
                if lev[a] > alpha and (eps[i] - eps[a]) % p != d:
                    return True
            return False

    else:
        sup, code = order.sup, order.code
        hi, lo = math.ceil(k / p), k // p

        def has_chain():
            counts = [0] * p

            def grow(pool, left, used):
                if left <= 0:
                    return all(c >= lo for c in counts)
                for v in pool:
                    i = code[v] // p
                    j = lev[i]
                    if j > alpha:
                        s = (eps[i] + code[v]) % p
                        if counts[s] < hi and (s, j) not in used:
                            counts[s] += 1
                            if grow(sup[v], left - 1, used + [(s, j)]):
                                return True
                            counts[s] -= 1
                return False

            return grow(range(len(code)), k, [])

        def touches(_i):
            return has_chain()

    def options(i):
        out = []
        for s in (0,) if p == 2 and i == 0 else signs:
            clash = set()
            for a, t in need[i][s]:
                if eps[a] != t:
                    clash.add(lev[a])
            out.extend((s, j) for j in levels if j > screened or j not in clash)
        return out

    def cross_check():
        lab = tucker._labeling(order, n, m, p, eps, lev)
        res = find_fan_chain(lab, alpha)
        if not isinstance(res, Verdict):
            raise RuntimeError(
                f"fan_sweep found no chain where find_fan_chain found {res}"
            )
        failures.append((lab.table, res))

    def count_top(chained):
        nonlocal count
        layer = range(top, R)
        opts = [options(t) for t in layer]
        count += math.prod(map(len, opts))
        if chained:
            return
        free = []
        for t, choices in zip(layer, opts):
            keep = []
            for s, j in choices:
                eps[t], lev[t] = s, j
                if not touches(t):
                    keep.append((s, j))
            lev[t] = 0
            if not keep:
                return
            free.append(keep)
        for labels in itertools.product(*free):
            for t, (s, j) in zip(layer, labels):
                eps[t], lev[t] = s, j
            cross_check()
        for t in layer:
            lev[t] = 0

    def rec(i, chained):
        nonlocal count
        if i == R:
            count += 1
            if not has_chain():
                cross_check()
            return
        if i == top:
            count_top(chained)
            return
        for s, j in options(i):
            eps[i], lev[i] = s, j
            rec(i + 1, chained or top < R and touches(i))
        lev[i] = 0

    rec(0, has_chain())
    in_regime = k <= (p - 1) * max(m - alpha, 0)
    return tucker.SweepReport(
        (n, m, p, alpha), count * p, tuple(failures), in_regime or count == 0, count
    )


REFERENCE_SWEEPS = [
    (n, m, alpha) for n in (1, 2, 3) for m in range(4) for alpha in range(n + 2)
]


@pytest.mark.parametrize("n, m, alpha", REFERENCE_SWEEPS)
def test_sweep_p2_matches_reference(n, m, alpha):
    assert fan_sweep(n, m, 2, alpha) == _reference_fan_sweep_p2(n, m, alpha)


@pytest.mark.parametrize(
    "n, m, alpha, chainless",
    [(2, 2, 0, 0), (2, 2, 1, 8), (3, 1, 0, 4096), (3, 1, 1, 4096)],
)
def test_unscreened_sweep_p2_matches_reference(monkeypatch, n, m, alpha, chainless):
    # without the screen chainless completions exist, so the reference
    # and the sweep must cross-check the same labelings
    real = tucker._signed_order(n, 2)
    unscreened = dataclasses.replace(real, cons=tuple(() for _ in real.cons))
    monkeypatch.setattr(tucker, "_signed_order", lambda n, p: unscreened)
    rep = fan_sweep(n, m, 2, alpha)
    assert len(rep.failures) == chainless
    assert rep == _reference_fan_sweep_p2(n, m, alpha)
