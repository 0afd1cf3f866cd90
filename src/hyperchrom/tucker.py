"""Executable harnesses for the Tucker-type lemmas.

Each lemma is exercised by explicit witness search: the harness
enumerates admissible labelings (or takes a constructed one), searches
for the chain the lemma promises, and reports a counterexample verdict
as a first-class value if the search fails.  Verdicts never raise; the
point is falsification-style testing of proved statements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .altdefect import SignedVector, alt_of_vector, alt_sigma, Ordering, signed_vectors
from .complexes import GPoset, SimplicialGComplex
from .gindex import LabeledSimplex, canonical_sign, value_l
from .hypergraph import (
    Coloring,
    Hypergraph,
    colex_key,
    is_proper,
    kneser,
    kneser_vertex_labels,
)

__all__ = [
    "EquivariantLabeling",
    "FanChain",
    "Verdict",
    "check_labeling_conditions",
    "find_fan_chain",
    "admissible_labelings",
    "fan_sweep",
    "SweepReport",
    "lambda_from_coloring",
    "colex_key",
    "gamma_vertex",
    "gamma_collapse",
    "gamma_case_analysis",
    "GammaCase",
    "gfan_chain",
    "poset_chain",
]


def _rot(eps: int, k: int, p: int) -> int:
    """Rotate an omega-power 1..p by w^k."""
    return (eps - 1 + k) % p + 1


@dataclass(frozen=True, eq=False)
class EquivariantLabeling:
    """A labeling of the nonzero signed vectors by Z_p x [m].

    The first coordinate is an omega-power in 1..p, rotated by the
    action; the second is a level in 1..m, fixed by the action.  The
    constructor checks totality and ranges only, so that deliberately
    broken labelings can be built for negative tests; equivariance is
    checked by :func:`check_labeling_conditions`.
    """

    n: int
    m: int
    p: int
    table: dict

    def __post_init__(self):
        expected = (self.p + 1) ** self.n - 1
        if len(self.table) != expected:
            raise ValueError("labeling must be total on the nonzero vectors")
        for X, (eps, j) in self.table.items():
            if not (1 <= eps <= self.p and 1 <= j <= self.m):
                raise ValueError(f"label {(eps, j)} for {X} out of range")

    def __call__(self, X: SignedVector) -> tuple[int, int]:
        return self.table[X]

    @classmethod
    def from_function(cls, n: int, m: int, p: int, f: Callable) -> "EquivariantLabeling":
        table = {X: f(X) for X in signed_vectors(n, p)}
        return cls(n, m, p, table)

    @classmethod
    def from_rep_assignment(
        cls, n: int, m: int, p: int, assignment: dict
    ) -> "EquivariantLabeling":
        """Extend a labeling of orbit representatives equivariantly."""
        table = {}
        for rep, (eps, j) in assignment.items():
            for k in range(p):
                table[rep.rotate(k)] = (_rot(eps, k, p), j)
        return cls(n, m, p, table)


@dataclass(frozen=True)
class FanChain:
    """A witness chain with its labels, re-checkable from scratch."""

    elements: tuple
    labels: tuple


@dataclass(frozen=True)
class Verdict:
    ok: bool
    kind: str  # "pass" | "counterexample" | "precondition"
    detail: str = ""
    witness: Optional[tuple] = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return self.ok


def _strict_pairs(vectors: Sequence[SignedVector]) -> Iterator[tuple]:
    for X in vectors:
        for Y in vectors:
            if X is not Y and X != Y and X.issubset(Y):
                yield X, Y


def check_labeling_conditions(lab: EquivariantLabeling, alpha: int) -> Verdict:
    """Verify equivariance and the two chain conditions of the
    Z_p-Tucker-Ky Fan lemma; returns the first violation found."""
    p = lab.p
    vectors = sorted(lab.table, key=lambda X: X.entries)
    for X in vectors:
        eps, j = lab(X)
        got = lab(X.rotate(1))
        if got != (_rot(eps, 1, p), j):
            return Verdict(
                False, "counterexample", "equivariance fails", witness=(X, (eps, j), got)
            )
    pairs = list(_strict_pairs(vectors))
    for X, Y in pairs:
        (e1, j1), (e2, j2) = lab(X), lab(Y)
        if j1 == j2 <= alpha and e1 != e2:
            return Verdict(
                False, "counterexample", "condition 1 fails", witness=(X, Y)
            )
    # condition 2: no strict chain of p vectors with one level >= alpha+1
    # and p pairwise distinct signs
    sup: dict[SignedVector, list[SignedVector]] = {X: [] for X in vectors}
    for X, Y in pairs:
        sup[X].append(Y)

    def grow(chain: list, signs: set) -> Optional[tuple]:
        if len(chain) == p:
            return tuple(chain)
        level = lab(chain[-1])[1]
        for Y in sup[chain[-1]]:
            eY, jY = lab(Y)
            if jY == level and eY not in signs:
                hit = grow(chain + [Y], signs | {eY})
                if hit:
                    return hit
        return None

    for X in vectors:
        eX, jX = lab(X)
        if jX >= alpha + 1:
            hit = grow([X], {eX})
            if hit:
                return Verdict(
                    False, "counterexample", "condition 2 fails", witness=hit
                )
    return Verdict(True, "pass")


def find_fan_chain(lab: EquivariantLabeling, alpha: int) -> FanChain | Verdict:
    """The chain promised by the Z_p-Tucker-Ky Fan lemma: length n-alpha,
    all levels >= alpha+1, pairwise distinct labels, balanced signs.

    Searched depth-first in lexicographic vector order, so the witness
    is canonical.  Nonexistence (impossible if the lemma holds) comes
    back as a counterexample verdict.
    """
    n, p = lab.n, lab.p
    k = n - alpha
    if k <= 0:
        return FanChain((), ())
    vectors = sorted(lab.table, key=lambda X: X.entries)
    sup: dict[SignedVector, list[SignedVector]] = {X: [] for X in vectors}
    for X, Y in _strict_pairs(vectors):
        sup[X].append(Y)
    for X in sup:
        sup[X].sort(key=lambda Y: Y.entries)
    hi = math.ceil(k / p)
    lo = k // p

    def admissible(X: SignedVector) -> bool:
        return lab(X)[1] >= alpha + 1

    def rec(chain: list, labels: list, counts: list) -> Optional[FanChain]:
        if len(chain) == k:
            if all(lo <= c <= hi for c in counts[1:]):
                return FanChain(tuple(chain), tuple(labels))
            return None
        pool = sup[chain[-1]] if chain else vectors
        need = k - len(chain)
        for Y in pool:
            if len(Y.support()) + need - 1 > n or not admissible(Y):
                continue
            labY = lab(Y)
            if labY in labels or counts[labY[0]] >= hi:
                continue
            counts[labY[0]] += 1
            hit = rec(chain + [Y], labels + [labY], counts)
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


# ---------------------------------------------------------------------------
# Exhaustive sweeps over admissible labelings
# ---------------------------------------------------------------------------


def _orbit_reps(n: int, p: int) -> list[SignedVector]:
    reps = []
    seen = set()
    for X in sorted(signed_vectors(n, p), key=lambda X: X.entries):
        if X in seen:
            continue
        seen.update(X.rotate(k) for k in range(p))
        reps.append(X)
    return reps


def admissible_labelings(
    n: int, m: int, p: int, alpha: int
) -> Iterator[EquivariantLabeling]:
    """Every equivariant labeling satisfying the two lemma conditions,
    enumerated over orbit representatives with incremental pruning."""
    reps = _orbit_reps(n, p)
    values = [(eps, j) for eps in range(1, p + 1) for j in range(1, m + 1)]
    assignment: dict[SignedVector, tuple[int, int]] = {}
    labeled: dict[SignedVector, tuple[int, int]] = {}

    def conditions_ok_pair(X, labX, Y, labY) -> bool:
        """Pairwise screen (complete for p = 2; chains rechecked later)."""
        if not (X.issubset(Y) or Y.issubset(X)):
            return True
        (e1, j1), (e2, j2) = labX, labY
        if j1 != j2:
            return True
        if j1 <= alpha:
            return e1 == e2
        if p == 2:
            return e1 == e2
        return True

    def rec(i: int) -> Iterator[EquivariantLabeling]:
        if i == len(reps):
            lab = EquivariantLabeling.from_rep_assignment(n, m, p, dict(assignment))
            if p == 2 or check_labeling_conditions(lab, alpha).ok:
                yield lab
            return
        rep = reps[i]
        orbit = [rep.rotate(k) for k in range(p)]
        for eps, j in values:
            labs = [(_rot(eps, k, p), j) for k in range(p)]
            if all(
                conditions_ok_pair(X, lx, Y, ly)
                for X, lx in zip(orbit, labs)
                for Y, ly in labeled.items()
            ) and all(
                conditions_ok_pair(X, lx, Y, ly)
                for (X, lx), (Y, ly) in itertools.combinations(zip(orbit, labs), 2)
            ):
                assignment[rep] = (eps, j)
                for X, lx in zip(orbit, labs):
                    labeled[X] = lx
                yield from rec(i + 1)
                del assignment[rep]
                for X in orbit:
                    del labeled[X]

    yield from rec(0)


@dataclass(frozen=True)
class SweepReport:
    params: tuple  # (n, m, p, alpha)
    admissible: int
    failures: tuple
    regime_ok: bool  # n - alpha <= (p-1)(m-alpha) consistency
    checked: int = -1  # labelings actually run (< admissible when the
    # global rotation symmetry is quotiented out; -1 means all)

    @property
    def ok(self) -> bool:
        return not self.failures


def fan_sweep(n: int, m: int, p: int, alpha: int) -> SweepReport:
    """Run find_fan_chain over every admissible labeling.

    When n - alpha > (p-1)(m-alpha) the lemma implies no admissible
    labeling exists at all; the sweep verifies that vacuity.  For p = 2
    a flat array engine is used and labelings are checked up to the
    global rotation (which permutes admissible labelings and preserves
    chain existence); other p go through the generic enumerator.
    """
    in_regime = n - alpha <= (p - 1) * (m - alpha)
    if p == 2:
        count, failures = _fan_sweep_p2(n, m, alpha)
        regime_ok = in_regime or count == 0
        return SweepReport(
            (n, m, p, alpha), p * count, tuple(failures), regime_ok, checked=count
        )
    count = 0
    failures = []
    for lab in admissible_labelings(n, m, p, alpha):
        count += 1
        res = find_fan_chain(lab, alpha)
        if isinstance(res, Verdict) and not res.ok:
            failures.append((dict(lab.table), res))
    regime_ok = in_regime or count == 0
    return SweepReport((n, m, p, alpha), count, tuple(failures), regime_ok, count)


def _fan_sweep_p2(n: int, m: int, alpha: int) -> tuple[int, list]:
    """Exhaustive p = 2 sweep on integer arrays.

    Vector indices are 2*rep + shift; a labeling is two arrays (sign
    residue and level per representative), with the first
    representative's sign pinned to 0 to quotient out the global
    rotation.  Admissibility for p = 2 collapses to one binary rule:
    comparable vectors on one level carry one sign.
    """
    reps = _orbit_reps(n, 2)
    R = len(reps)
    vec_to = {}
    for i, r in enumerate(reps):
        for k in range(2):
            vec_to[r.rotate(k)] = 2 * i + k
    pairs = [
        (vec_to[X], vec_to[Y])
        for X in vec_to
        for Y in vec_to
        if X != Y and X.issubset(Y)
    ]
    # per representative: constraints against earlier representatives,
    # as (rep, parity); parity -1 marks "no shared level at all"
    pre: list[dict] = [dict() for _ in range(R)]
    for x, y in pairs:
        a, b = x >> 1, y >> 1
        lo, hi = (a, b) if a < b else (b, a)
        par = (x + y) & 1
        old = pre[hi].get(lo)
        if old is None:
            pre[hi][lo] = par
        elif old != par:
            pre[hi][lo] = -1
    cons = [sorted(d.items()) for d in pre]

    k_len = n - alpha
    eps = [0] * R
    lev = [0] * R
    count = 0
    failures: list = []

    if k_len == 2:
        flat = [(x >> 1, x & 1, y >> 1, y & 1) for x, y in pairs]

        def leaf_has_chain() -> bool:
            for a, ka, b, kb in flat:
                if (
                    lev[a] > alpha
                    and lev[b] > alpha
                    and (eps[a] + ka + eps[b] + kb) & 1
                ):
                    return True
            return False

    else:
        sup: dict[int, list[int]] = {v: [] for v in range(2 * R)}
        for x, y in pairs:
            sup[x].append(y)
        hi_cnt = math.ceil(k_len / 2)
        lo_cnt = k_len // 2

        def leaf_has_chain() -> bool:
            labels_of = lambda v: ((eps[v >> 1] + v) & 1, lev[v >> 1])
            good = [v for v in range(2 * R) if lev[v >> 1] > alpha]

            def rec(chain, labels, counts):
                if len(chain) == k_len:
                    return all(lo_cnt <= c <= hi_cnt for c in counts)
                pool = sup[chain[-1]] if chain else good
                for v in pool:
                    lv = labels_of(v)
                    if lv[1] <= alpha or lv in labels or counts[lv[0]] >= hi_cnt:
                        continue
                    counts[lv[0]] += 1
                    if rec(chain + [v], labels + [lv], counts):
                        return True
                    counts[lv[0]] -= 1
                return False

            return rec([], [], [0, 0])

    def record_failure() -> None:
        assignment = {reps[i]: (eps[i] + 1, lev[i]) for i in range(R)}
        lab = EquivariantLabeling.from_rep_assignment(n, m, 2, assignment)
        failures.append((dict(lab.table), find_fan_chain(lab, alpha)))

    def rec(i: int) -> None:
        nonlocal count
        if i == R:
            count += 1
            if not leaf_has_chain():
                record_failure()
            return
        my = cons[i]
        for e in (0,) if i == 0 else (0, 1):
            for j in range(1, m + 1):
                ok = True
                for a, par in my:
                    if lev[a] == j and (par < 0 or (e ^ eps[a]) != par):
                        ok = False
                        break
                if ok:
                    eps[i] = e
                    lev[i] = j
                    rec(i + 1)
        lev[i] = 0

    rec(0)
    return count, failures


# ---------------------------------------------------------------------------
# The labeling built from a proper Kneser coloring (Theorem C machinery)
# ---------------------------------------------------------------------------


def lambda_from_coloring(
    F: Hypergraph,
    p: int,
    c: Coloring,
    sigma: Optional[Ordering] = None,
    order: Callable = colex_key,
) -> EquivariantLabeling:
    """The two-regime labeling from the colorful theorem's proof.

    Below the alternation threshold: (first nonzero entry, alt(X)).
    Above it: the level is the threshold plus the maximum color of an
    edge inside some sign class, and the sign is the class that is
    maximal (under the total order) among those containing such an edge.
    """
    n = F.n
    K = kneser(F, p)
    if not is_proper(K, c):
        raise ValueError("c is not a proper coloring of the Kneser hypergraph")
    sigma = sigma or Ordering(tuple(range(1, n + 1)))
    threshold = alt_sigma(F, p, sigma)
    fedges = kneser_vertex_labels(F)
    color_of = {e: c(i + 1) for i, e in enumerate(fedges)}
    m = threshold + c.palette_size

    def label(X: SignedVector) -> tuple[int, int]:
        a = alt_of_vector(X)
        if a <= threshold:
            first = next(x for x in X.entries if x)
            return (first, a)
        classes = {
            eps: sigma.map_positions(X.sign_class(eps)) for eps in range(1, p + 1)
        }
        inner = {
            eps: [e for e in fedges if e <= verts]
            for eps, verts in classes.items()
        }
        cX = max(color_of[e] for es in inner.values() for e in es)
        best_eps = max(
            (eps for eps, es in inner.items() if any(color_of[e] == cX for e in es)),
            key=lambda eps: order(X.sign_class(eps)),
        )
        return (best_eps, threshold + cX)

    return EquivariantLabeling.from_function(n, m, p, label)


# ---------------------------------------------------------------------------
# The Gamma collapse map and its case analysis
# ---------------------------------------------------------------------------


def _split_sigma_tau(S: Iterable, alpha: int, p: int, m: int):
    """Split a simplex on Z_p x [m] into its sigma part (levels <= alpha)
    and tau part (levels > alpha, re-based to 1..m-alpha)."""
    sigma = frozenset((eps, j) for eps, j in S if j <= alpha)
    tau = LabeledSimplex(
        frozenset((eps, j - alpha) for eps, j in S if j > alpha), p, m - alpha
    )
    return sigma, tau


def gamma_vertex(S: Iterable, p: int, alpha: int, m: int) -> tuple[int, int]:
    """Gamma of one vertex of sd K (a simplex S of K), by the proof's
    three regimes.  Signs are residues 0..p-1 as in module complexes."""
    sigma, tau = _split_sigma_tau(S, alpha, p, m)
    if not tau.labels:
        if not sigma:
            raise ValueError("empty simplex")
        levels = [j for _, j in sigma]
        jmax = max(levels)
        tops = [eps for eps, j in sigma if j == jmax]
        if len(tops) != 1:
            raise ValueError("sigma part has two labels at one level")
        return (tops[0], jmax)
    l, h = value_l(tau)
    if h == 0:
        bar = frozenset(eps for eps in range(p) if not tau.part(eps))
        return (canonical_sign(bar, p), alpha + l)
    bar = LabeledSimplex(
        frozenset(
            x for eps in range(p) if len(tau.part(eps)) == h for x in tau.part(eps)
        ),
        tau.p,
        tau.m,
    )
    return (canonical_sign(bar), alpha + l)


@dataclass(frozen=True)
class GammaCase:
    case: str  # "sigma" | "(i)" | "(ii)" | "(iii)(a)" | "(iii)(b)"
    l_pair: tuple[int, int]
    clash_possible: bool
    reason: str


def gamma_case_analysis(
    tau: LabeledSimplex, tau_prime: LabeledSimplex
) -> GammaCase:
    """Re-enact the proof's case analysis for a nested pair of tau parts:
    determine whether Gamma can assign them the same level with
    different signs (the proof shows it never can)."""
    if not tau.labels <= tau_prime.labels:
        raise ValueError("expected nested simplices")
    l1, h1 = value_l(tau)
    l2, h2 = value_l(tau_prime)
    if not tau.labels:
        return GammaCase("sigma", (l1, l2), False, "empty tau handled by the sigma rule")
    p = tau.p
    if h1 == 0 and h2 == 0:
        if l1 != l2:
            return GammaCase("(i)", (l1, l2), False, "Gamma levels already differ")
        bar1 = frozenset(eps for eps in range(p) if not tau.part(eps))
        bar2 = frozenset(eps for eps in range(p) if not tau_prime.part(eps))
        clash = canonical_sign(bar1, p) != canonical_sign(bar2, p)
        return GammaCase(
            "(i)",
            (l1, l2),
            clash,
            "equal l with h=h'=0 forces equal empty-class sets, hence equal s0",
        )
    if h1 == 0 and h2 > 0:
        # l <= p-1 while l' >= p, so equal levels cannot occur at all
        return GammaCase(
            "(ii)", (l1, l2), l1 == l2, "l <= p-1 < p <= l' forbids l = l'"
        )
    if l1 != l2:
        case = "(iii)(a)" if h1 == h2 else "(iii)(b)"
        return GammaCase(case, (l1, l2), False, "Gamma levels already differ")
    if h1 == h2:
        bars = []
        for t in (tau, tau_prime):
            bars.append(
                LabeledSimplex(
                    frozenset(
                        x
                        for eps in range(p)
                        if len(t.part(eps)) == h1
                        for x in t.part(eps)
                    ),
                    t.p,
                    t.m,
                )
            )
        clash = canonical_sign(bars[0]) != canonical_sign(bars[1])
        return GammaCase(
            "(iii)(a)",
            (l1, l2),
            clash,
            "equal l with h=h'>0 forces equal minimum-class unions, hence equal s",
        )
    # h < h' with equal l contradicts l <= p*h+p-1 < p*(h+1) <= l', so
    # reaching this point would itself falsify the proof's case (iii)(b)
    return GammaCase(
        "(iii)(b)", (l1, l2), True, "equal l despite h < h' should be impossible"
    )


@dataclass(frozen=True)
class GammaResult:
    mapping: dict = field(compare=False)
    verdict: Verdict = Verdict(True, "pass")
    l_cap_hit: Optional[tuple] = None


def gamma_collapse(
    K: SimplicialGComplex,
    alpha: int,
    m: Optional[int] = None,
    l_cap: Optional[int] = None,
) -> GammaResult:
    """Construct Gamma on sd K and verify it is a simplicial Z_p-map.

    K must live on Z_p x [m] with the rotation action (``m`` defaults to
    the largest level present).  If ``l_cap`` is
    given and some tau part has l(tau) > l_cap, that is the lemma's
    conclusion firing: reported as a precondition verdict, not an error.
    """
    p = K.p
    if m is None:
        m = max(j for _, j in K.vertices)
    simplices = sorted(K.simplices(), key=lambda s: (len(s), sorted(s)))
    mapping = {}
    for S in simplices:
        _, tau = _split_sigma_tau(S, alpha, p, m)
        if l_cap is not None and tau.labels:
            l, _ = value_l(tau)
            if l > l_cap:
                return GammaResult(
                    {},
                    Verdict(
                        False,
                        "precondition",
                        f"l(tau) = {l} exceeds the cap {l_cap}",
                        witness=(S,),
                    ),
                    l_cap_hit=(S, l),
                )
        mapping[S] = gamma_vertex(S, p, alpha, m)

    # equivariance
    for S, (eps, j) in mapping.items():
        gS = K.act_set(1, S)
        if mapping[gS] != ((eps + 1) % p, j):
            return GammaResult(
                mapping,
                Verdict(False, "counterexample", "Gamma not equivariant", witness=(S,)),
            )
    # simplicial: nested vertices of sd K never clash at one level
    for S, (e1, j1) in mapping.items():
        for T, (e2, j2) in mapping.items():
            if S < T and j1 == j2 and e1 != e2:
                return GammaResult(
                    mapping,
                    Verdict(
                        False,
                        "counterexample",
                        "Gamma maps a nested pair to one level with two signs",
                        witness=(S, T),
                    ),
                )
    return GammaResult(mapping, Verdict(True, "pass"))


# ---------------------------------------------------------------------------
# G-Fan lemma and poset chains
# ---------------------------------------------------------------------------


def gfan_chain(
    T: SimplicialGComplex, labeling: dict, n: int
) -> FanChain | Verdict:
    """The alternating chain of the G-Fan lemma: a simplex of T whose
    labels (g_0, j_0), ..., (g_n, j_n) have g_i != g_{i+1} and strictly
    increasing j_i.  Labels live in G x [m] with G the residues 0..p-1.
    """
    p = T.p
    for v in T.vertices:
        g, j = labeling[v]
        gv = labeling[T.act(1, v)]
        if gv != ((g + 1) % p, j):
            return Verdict(
                False, "precondition", "labeling is not equivariant", witness=(v,)
            )
    for Mx in T.maximal_simplices:
        for u, v in itertools.combinations(sorted(Mx, key=repr), 2):
            (g1, j1), (g2, j2) = labeling[u], labeling[v]
            if j1 == j2 and g1 != g2:
                return Verdict(
                    False,
                    "precondition",
                    "an edge carries one level with two group elements",
                    witness=(u, v),
                )

    best: Optional[FanChain] = None
    for Mx in sorted(T.maximal_simplices, key=lambda s: sorted(map(repr, s))):
        verts = sorted(Mx, key=lambda v: (labeling[v][1], labeling[v][0], repr(v)))
        k = len(verts)

        def grow(idx: int, chain: list) -> Optional[list]:
            if len(chain) == n + 1:
                return list(chain)
            for t in range(idx, k):
                v = verts[t]
                g, j = labeling[v]
                if chain:
                    g0, j0 = labeling[chain[-1]]
                    if j <= j0 or g == g0:
                        continue
                hit = grow(t + 1, chain + [v])
                if hit:
                    return hit
            return None

        hit = grow(0, [])
        if hit is not None:
            cand = FanChain(tuple(hit), tuple(labeling[v] for v in hit))
            if best is None or cand.labels < best.labels:
                best = cand
    if best is not None:
        return best
    return Verdict(
        False,
        "counterexample",
        f"no simplex carries an alternating label chain of length {n + 1}",
    )


def poset_chain(
    P: GPoset, psi: dict, k: int, alternating: bool = False
) -> FanChain | Verdict:
    """A chain p_1 < ... < p_k with strictly increasing psi-levels and
    balanced signs (the poset-chain proposition); with ``alternating``
    the p = 2 variant whose consecutive signs differ is searched.

    ``psi`` maps element indices to (sign residue, level).
    """
    p = P.p
    for x in range(len(P)):
        e, l = psi[x]
        ex, lx = psi[P.act(1, x)]
        if (ex - e) % p != 1 or lx != l:
            return Verdict(False, "precondition", "psi is not equivariant", witness=(x,))
        for y in P.above[x]:
            ey, ly = psi[y]
            if not (l < ly or (l == ly and e == ey)):
                return Verdict(
                    False, "precondition", "psi is not order preserving", witness=(x, y)
                )
    if k <= 0:
        return FanChain((), ())
    hi = math.ceil(k / p)
    lo = k // p

    order = sorted(range(len(P)), key=lambda x: (psi[x][1], repr(P.labels[x])))

    def rec(chain: list, counts: list) -> Optional[list]:
        if len(chain) == k:
            if alternating or all(lo <= c <= hi for c in counts):
                return list(chain)
            return None
        for x in order:
            if chain:
                last = chain[-1]
                if not P.lt(last, x) or psi[x][1] <= psi[last][1]:
                    continue
                if alternating and psi[x][0] == psi[last][0]:
                    continue
            e = psi[x][0]
            if not alternating and counts[e] >= hi:
                continue
            counts[e] += 1
            hit = rec(chain + [x], counts)
            counts[e] -= 1
            if hit:
                return hit
        return None

    hit = rec([], [0] * p)
    if hit is not None:
        return FanChain(
            tuple(P.labels[x] for x in hit), tuple(psi[x] for x in hit)
        )
    kind = "alternating" if alternating else "balanced"
    return Verdict(False, "counterexample", f"no {kind} chain of length {k}")
