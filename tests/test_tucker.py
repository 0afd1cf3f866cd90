import collections
import dataclasses
import itertools
import math
import random
from typing import Optional

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


def test_labeling_keys_must_be_the_nonzero_vectors():
    # 15 keys, as many as (n, p) = (2, 3) has nonzero vectors, but none
    # of them a vector of (2, 3): the checkers would meet a missing key
    table = {SignedVector((e,), 15): (1, 1) for e in range(1, 16)}
    with pytest.raises(ValueError, match="total"):
        EquivariantLabeling(2, 1, 3, table)
    # one key swapped for a vector of another modulus
    table = dict(first_sign_alt(2, 3).table)
    del table[SignedVector((1, 1), 3)]
    table[SignedVector((1, 1), 4)] = (1, 2)
    with pytest.raises(ValueError, match="total"):
        EquivariantLabeling(2, 2, 3, table)


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


@pytest.mark.parametrize("n, m, alpha, leaves", [(2, 1, 0, 243), (2, 2, 0, 7776)])
def test_sweep_p3_checks_each_leaf_once(monkeypatch, n, m, alpha, leaves):
    # at p >= 3 every complete labeling goes through the checker once
    calls = []
    real = tucker.check_labeling_conditions

    def counted(lab, a):
        calls.append(lab)
        return real(lab, a)

    monkeypatch.setattr(tucker, "check_labeling_conditions", counted)
    rep = fan_sweep(n, m, 3, alpha)
    assert len(calls) == rep.admissible == leaves
    assert all(isinstance(lab, EquivariantLabeling) for lab in calls)


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


# ---------------------------------------------------------------------------
# the former labeling checker and chain search, kept as references for
# the positional reads and the support-size bound on condition 2
# ---------------------------------------------------------------------------


def _reference_check_labeling_conditions(lab, alpha):
    """check_labeling_conditions as it was: every label read through
    ``lab(X)``, and condition 2 searched without a support-size bound."""
    p = lab.p
    order = tucker._signed_order(lab.n, p)
    vectors, sup = order.vectors, order.sup
    labels = [lab(X) for X in vectors]
    for v, (eps, j) in enumerate(labels):
        got = labels[order.rot[v]]
        if got != (tucker._rot(eps, 1, p), j):
            return Verdict(
                False,
                "counterexample",
                "equivariance fails",
                witness=(vectors[v], (eps, j), got),
            )
    for x, ys in enumerate(sup):
        e1, j1 = labels[x]
        for y in ys:
            e2, j2 = labels[y]
            if j1 == j2 <= alpha and e1 != e2:
                return Verdict(
                    False,
                    "counterexample",
                    "condition 1 fails",
                    witness=(vectors[x], vectors[y]),
                )
    # condition 2: no strict chain of p vectors with one level >= alpha+1
    # and p pairwise distinct signs

    def grow(chain: list, signs: set) -> Optional[tuple]:
        if len(chain) == p:
            return tuple(vectors[v] for v in chain)
        level = labels[chain[-1]][1]
        for y in sup[chain[-1]]:
            eY, jY = labels[y]
            if jY == level and eY not in signs:
                hit = grow(chain + [y], signs | {eY})
                if hit:
                    return hit
        return None

    for x, (eX, jX) in enumerate(labels):
        if jX >= alpha + 1:
            hit = grow([x], {eX})
            if hit:
                return Verdict(
                    False, "counterexample", "condition 2 fails", witness=hit
                )
    return Verdict(True, "pass")


def _reference_find_fan_chain(lab, alpha):
    """find_fan_chain as it was: labels read through ``lab(X)`` and
    support sizes counted per call."""
    n, p = lab.n, lab.p
    k = n - alpha
    if k <= 0:
        return FanChain((), ())
    order = tucker._signed_order(n, p)
    vectors = order.vectors
    labels = [lab(X) for X in vectors]
    size = [len(X.support()) for X in vectors]
    hi = math.ceil(k / p)
    lo = k // p

    def rec(chain: list, used: list, counts: list) -> Optional[FanChain]:
        if len(chain) == k:
            if all(lo <= c <= hi for c in counts[1:]):
                return FanChain(tuple(vectors[v] for v in chain), tuple(used))
            return None
        pool = order.sup[chain[-1]] if chain else range(len(vectors))
        need = k - len(chain)
        for y in pool:
            labY = labels[y]
            if size[y] + need - 1 > n or labY[1] < alpha + 1:
                continue
            if labY in used or counts[labY[0]] >= hi:
                continue
            counts[labY[0]] += 1
            hit = rec(chain + [y], used + [labY], counts)
            counts[labY[0]] -= 1
            if hit:
                return hit
        return None

    hit = rec([], [], [0] * (p + 1))
    if hit:
        return hit
    return Verdict(
        False,
        "counterexample",
        f"no Fan chain of length {k} exists for this admissible labeling",
    )


def _random_labelings(rng, n, p):
    """Equivariant labelings with random rep labels on 1..m levels, each
    also broken at one random vector, plus the first-sign labeling."""
    reps = sorted(
        {signed_orbit_representative(X) for X in signed_vectors(n, p)},
        key=lambda X: X.entries,
    )
    yield first_sign_alt(n, p)
    for _ in range(12):
        m = rng.randint(1, n + 1)
        assignment = {X: (rng.randint(1, p), rng.randint(1, m)) for X in reps}
        lab = EquivariantLabeling.from_rep_assignment(n, m, p, assignment)
        yield lab
        table = dict(lab.table)
        X = rng.choice(sorted(table, key=lambda X: X.entries))
        eps, j = table[X]
        table[X] = (eps % p + 1, j) if rng.random() < 0.5 else (eps, j % m + 1)
        yield EquivariantLabeling(n, m, p, table)


def _outcome(res):
    if isinstance(res, Verdict):
        return (res.ok, res.kind, res.detail, res.witness)
    return res


def test_checker_and_chain_search_match_references():
    rng = random.Random(22)
    details = collections.Counter()
    for p in (3, 4, 5):
        for n in (1, 2, 3):
            labs = list(_random_labelings(rng, n, p))
            for alpha in range(n + 2):
                for lab in labs:
                    got = check_labeling_conditions(lab, alpha)
                    want = _reference_check_labeling_conditions(lab, alpha)
                    assert _outcome(got) == _outcome(want)
                    details[got.detail] += 1
                    assert _outcome(find_fan_chain(lab, alpha)) == _outcome(
                        _reference_find_fan_chain(lab, alpha)
                    )
    assert set(details) == {
        "",
        "equivariance fails",
        "condition 1 fails",
        "condition 2 fails",
    }
