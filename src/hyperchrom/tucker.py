"""Executable harnesses for the Tucker-type lemmas.

Each lemma is exercised by explicit witness search: the harness
enumerates admissible labelings (or takes a constructed one), searches
for the chain the lemma promises, and reports a counterexample verdict
as a first-class value if the search fails.  Verdicts never raise; the
point is falsification-style testing of proved statements.

The containment order of the signed vectors and the rotation action
depend only on (n, p).  They are built once per (n, p) as integer
tables (``altdefect._signed_order``), which the sweep and both labeling
checkers read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .altdefect import (
    Ordering,
    SignedVector,
    _signed_order,
    _SignedOrder,
    alt_of_vector,
    alt_sigma,
    signed_vectors,
)
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


def check_labeling_conditions(lab: EquivariantLabeling, alpha: int) -> Verdict:
    """Verify equivariance and the two chain conditions of the
    Z_p-Tucker-Ky Fan lemma; returns the first violation found, in
    lexicographic vector order."""
    p = lab.p
    order = _signed_order(lab.n, p)
    vectors, sup = order.vectors, order.sup
    labels = [lab(X) for X in vectors]
    for v, (eps, j) in enumerate(labels):
        got = labels[order.rot[v]]
        if got != (_rot(eps, 1, p), j):
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
    order = _signed_order(n, p)
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


# ---------------------------------------------------------------------------
# Exhaustive sweeps over admissible labelings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    params: tuple  # (n, m, p, alpha)
    admissible: int
    failures: tuple
    regime_ok: bool  # n - alpha <= (p-1) max(m-alpha, 0), or nothing admissible
    # labelings covered: admissible / 2 at p = 2, where the first
    # representative's sign is pinned, and admissible at every other p
    checked: int

    @property
    def ok(self) -> bool:
        return not self.failures


def _labeling(order: _SignedOrder, n: int, m: int, p: int, eps: list, lev: list):
    """The labeling of every vector from one residue sign and one level
    per orbit representative."""
    table = {
        X: ((eps[c // p] + c) % p + 1, lev[c // p])
        for X, c in zip(order.vectors, order.code)
    }
    return EquivariantLabeling(n, m, p, table)


def fan_sweep(n: int, m: int, p: int, alpha: int) -> SweepReport:
    """Search for a Fan chain in every admissible labeling.

    One depth-first enumerator serves every p.  It assigns each orbit
    representative a residue sign and a level; the rest of the labeling
    follows by equivariance.  A pairwise screen prunes as it goes:
    comparable vectors on one level <= alpha carry one sign (condition
    1), and at p = 2, where condition 2 is the same pairwise rule, so do
    those on every level.  At p >= 3 every complete labeling goes
    through :func:`check_labeling_conditions` and only the labelings it
    passes count.  At p = 2 the first representative's sign is pinned,
    since the global rotation permutes the admissible labelings and
    preserves chain existence.

    At p = 2 the largest support layer, which :func:`_signed_order`
    puts last as ``reps[top:]``, is counted rather than enumerated.
    Signed vectors of one support size are never strictly comparable,
    so the layer is an antichain: the screen never relates two of its
    vectors, and a chain holds at most one of them.  Once ``reps[:top]``
    are assigned, the admissible completions are therefore the product
    of each top representative's admissible (sign, level) options.  A
    representative's options with one sign are the levels outside its
    clash mask, the levels of the comparable representatives whose signs
    clash with it, so the product is counted from those masks.  If
    ``reps[:top]`` already hold a chain, every completion has one;
    otherwise a completion lacks a chain exactly when each top
    representative takes an option that completes none, and only those
    completions are built.

    The chains of length n - alpha are searched on integer arrays as
    the representatives are assigned, at every p: one flag records
    whether the assigned representatives hold a chain.  While they hold
    none, a new representative can only complete one through its own
    orbit, so the test searches only the chains through the
    representative's vector.  A labeling without a chain is rebuilt and
    searched again by :func:`find_fan_chain`; only a second miss is
    recorded as a failure, and a disagreement raises.  When n - alpha
    exceeds (p-1) max(m-alpha, 0) the lemma implies no admissible
    labeling exists; the report's ``regime_ok`` records that vacuity.
    ``ValueError`` names a parameter below its least value.
    """
    least_values = (("n", n, 1), ("m", m, 0), ("p", p, 2), ("alpha", alpha, 0))
    for name, value, least in least_values:
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    order = _signed_order(n, p)
    R = len(order.reps)
    top = order.top if p == 2 else R
    k = n - alpha
    eps = [0] * R
    lev = [0] * R  # 0: unassigned, never above alpha unless no chain fits (k > n)
    screened = m if p == 2 else alpha  # levels the pairwise rule covers
    # need[i][s]: (a, the sign a must carry when i has sign s), per
    # constraint of rep i; -1 when no sign would do
    need = [
        [[(a, (s - d) % p if d >= 0 else -1) for a, d in cons] for s in range(p)]
        for cons in order.cons
    ]
    signs = range(p)
    rep_signs = [(0,) if p == 2 and i == 0 else signs for i in range(R)]
    levels = range(1, m + 1)
    low = (1 << (min(screened, m) + 1)) - 2  # the screened levels 1..screened
    count = 0
    failures: list = []

    if k == 2:
        # a two-chain is one comparable pair with two signs; a pair and
        # its rotations share their offset, so one test covers them all
        below = [[] for _ in range(R)]  # below[i]: (a, d) per (a, i, d) in pairs
        for a, i, d in order.pairs:
            below[i].append((a, d))

        def touches(i: int) -> bool:
            """A chain through rep i and the reps before it."""
            if lev[i] <= alpha:
                return False
            for a, d in below[i]:
                if lev[a] > alpha and (eps[i] - eps[a]) % p != d:
                    return True
            return False

    else:  # one search over the superset lists
        sup, sub, code = order.sup, order.sub, order.code
        hi, lo = math.ceil(k / p), k // p

        def grow(pool, left: int, used: list, counts: list) -> bool:
            """Extend a chain up through ``pool`` by ``left`` vectors."""
            if left <= 0:
                return all(c >= lo for c in counts)
            for v in pool:
                i = code[v] // p
                j = lev[i]
                if j > alpha:
                    s = (eps[i] + code[v]) % p
                    if counts[s] < hi and (s, j) not in used:
                        counts[s] += 1
                        if grow(sup[v], left - 1, used + [(s, j)], counts):
                            return True
                        counts[s] -= 1
            return False

        def touches(i: int) -> bool:
            """A chain through rep i and the reps before it.

            Only asked while the reps before i hold no chain, so a chain
            meets orbit i, and rotating it puts vectors[reps[i]] on it
            with its labels still distinct and its signs still balanced.
            The search goes down from that vector through ``sub`` and
            then up from it through ``sup``.
            """
            if lev[i] <= alpha:
                return False
            v0 = order.reps[i]
            counts = [0] * p
            counts[eps[i]] = 1

            def down(pool, left: int, used: list) -> bool:
                if grow(sup[v0], left, used, counts):
                    return True
                if left <= 0:
                    return False
                for v in pool:
                    a = code[v] // p
                    j = lev[a]
                    if j > alpha:
                        s = (eps[a] + code[v]) % p
                        if counts[s] < hi and (s, j) not in used:
                            counts[s] += 1
                            if down(sub[v], left - 1, used + [(s, j)]):
                                return True
                            counts[s] -= 1
                return False

            return down(sub[v0], k - 1, [(eps[i], lev[i])])

    def clash(i: int, s: int) -> int:
        """The levels rep i cannot take with sign s, as a bit mask: a
        comparable rep there carries a clashing sign."""
        mask = 0
        for a, t in need[i][s]:
            if eps[a] != t:
                mask |= 1 << lev[a]
        return mask

    def options(i: int) -> list:
        """The (sign, level) pairs the screen lets rep i take."""
        out = []
        for s in rep_signs[i]:
            mask = clash(i, s)
            out.extend((s, j) for j in levels if j > screened or not mask >> j & 1)
        return out

    def cross_check() -> None:
        lab = _labeling(order, n, m, p, eps, lev)
        res = find_fan_chain(lab, alpha)
        if not isinstance(res, Verdict):
            raise RuntimeError(
                f"fan_sweep found no chain where find_fan_chain found {res}"
            )
        failures.append((lab.table, res))

    def count_top(chained: bool) -> None:
        """Count the completions of reps[:top]; cross-check the chainless."""
        nonlocal count
        layer = range(top, R)
        if chained:
            # each top rep's options, counted from its clash masks
            total = 1
            for t in layer:
                ways = 0
                for s in rep_signs[t]:
                    ways += m - (clash(t, s) & low).bit_count()
                total *= ways
            count += total
            return
        opts = [options(t) for t in layer]
        count += math.prod(map(len, opts))
        free = []  # per top rep, the options that complete no chain
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

    def rec(i: int, chained: bool) -> None:
        """``chained``: reps[:i] hold a chain."""
        nonlocal count
        if i == R:
            if p > 2 and not check_labeling_conditions(
                _labeling(order, n, m, p, eps, lev), alpha
            ).ok:
                return
            count += 1
            if not chained:
                cross_check()
            return
        if i == top:
            count_top(chained)
            return
        for s, j in options(i):
            eps[i], lev[i] = s, j
            rec(i + 1, chained or touches(i))
        lev[i] = 0

    rec(0, k <= 0)  # only the empty chain needs no representative
    # a chain of k labels above alpha holds at most p - 1 vectors per level
    in_regime = k <= (p - 1) * max(m - alpha, 0)
    admissible = count * p if p == 2 else count
    return SweepReport(
        (n, m, p, alpha), admissible, tuple(failures), in_regime or count == 0, count
    )


# ---------------------------------------------------------------------------
# The labeling built from a proper Kneser coloring (Theorem C machinery)
# ---------------------------------------------------------------------------


def lambda_from_coloring(
    F: Hypergraph,
    p: int,
    c: Coloring,
    sigma: Optional[Ordering] = None,
) -> EquivariantLabeling:
    """The two-regime labeling from the colorful theorem's proof.

    Below the alternation threshold: (first nonzero entry, alt(X)).
    Above it: the level is the threshold plus the maximum color of an
    edge inside some sign class, and the sign is the class that is
    colex-maximal among those containing such an edge.
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
            key=lambda eps: colex_key(X.sign_class(eps)),
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
    l_cap: Optional[int] = None,
) -> GammaResult:
    """Construct Gamma on sd K and verify it is a simplicial Z_p-map.

    K must live on Z_p x [m] with the rotation action, m the largest
    level present.  If ``l_cap`` is given and some tau part has
    l(tau) > l_cap, that is the lemma's conclusion firing: reported as a
    precondition verdict, not an error.
    """
    p = K.p
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
