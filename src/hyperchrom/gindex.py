"""Value and sign functions, the cross-index, and certified index bounds.

The cross-index Xind of a free Z_p-poset is computed exactly: for each
n in turn, an equivariant (sign, level) labeling of orbit
representatives is encoded as CNF and decided by the SAT solver in
:mod:`.sat`, so the first satisfiable n is the value.  The order
constraints are posted on the cover pairs of the poset only: the
relation "lower level, or the same level and the same sign" is
transitive, and every comparable pair is joined by a chain of covers, so
the cover CNF has exactly the models of the CNF on all comparable pairs.
The same search finds the simplicial maps behind the upper bounds on
ind.

Xind is decided on the beat-point core C of the poset P
(:func:`.complexes.beat_core`), an invariant subposet with an equivariant
order-preserving retraction r: P -> C, so Xind(C) = Xind(P): a map on P
restricts to C, and a map phi on C gives the map phi o r on P.  An
unsatisfiable n on C therefore refutes n on P, and every map found on C
is lifted through r and re-checked on all of P.

The simplicial index ind is not computable by finite search (failing
to find a simplicial map at a bounded subdivision depth does not
refute a continuous map), so it is reported as a certified interval:
every bound carries a certificate that can be re-checked
independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .altdefect import alt_min
from .complexes import (
    GPoset,
    SimplicialGComplex,
    barycentric_subdivision,
    beat_core,
    orbit_decomposition,
)
from .hypergraph import Hypergraph, SearchBudget
from .sat import SatSolver

__all__ = [
    "LabeledSimplex",
    "IndexInterval",
    "Certificate",
    "XindResult",
    "value_l",
    "value_l_bruteforce",
    "canonical_sign",
    "xind_exact",
    "ind_bounds",
    "check_order_map",
    "check_simplicial_map",
    "check_join_embedding",
]


@dataclass(frozen=True)
class LabeledSimplex:
    """Simplex of (sigma^{p-1}_{p-2})^{*m}: a set of labels (eps, j) with
    eps a residue in 0..p-1 and j a level in 1..m, at most one label per
    (eps, j) and never all p residues at one level."""

    labels: frozenset
    p: int
    m: int

    def __post_init__(self):
        seen: dict[int, set[int]] = {}
        for eps, j in self.labels:
            if not (0 <= eps < self.p and 1 <= j <= self.m):
                raise ValueError(f"label {(eps, j)} out of range")
            seen.setdefault(j, set()).add(eps)
        if any(len(s) == self.p for s in seen.values()):
            raise ValueError("a level carries all p residues")

    def part(self, eps: int) -> frozenset:
        """tau^eps: the labels carrying residue eps."""
        return frozenset(x for x in self.labels if x[0] == eps)

    def sizes(self) -> tuple[int, ...]:
        counts = [0] * self.p
        for eps, _ in self.labels:
            counts[eps] += 1
        return tuple(counts)

    def rotate(self, k: int) -> "LabeledSimplex":
        return LabeledSimplex(
            frozenset(((eps + k) % self.p, j) for eps, j in self.labels),
            self.p,
            self.m,
        )


def value_l(tau: LabeledSimplex) -> tuple[int, int]:
    """(l(tau), h(tau)): h is the minimum class size and
    l = p*h + #{eps : |tau^eps| > h}."""
    sizes = tau.sizes()
    h = min(sizes)
    l = tau.p * h + sum(1 for s in sizes if s > h)
    return l, h


def value_l_bruteforce(tau: LabeledSimplex) -> int:
    """l(tau) from its definition: the largest union of per-class
    subfamilies B^eps <= tau^eps whose sizes pairwise differ by <= 1."""
    sizes = tau.sizes()
    best = 0
    for pick in itertools.product(*(range(s + 1) for s in sizes)):
        if max(pick) - min(pick) <= 1:
            best = max(best, sum(pick))
    return best


def canonical_sign(x, p: Optional[int] = None) -> int:
    """The sign functions s and s_0: the residue j such that the input
    equals w^j applied to the lexicographically least member of its
    rotation orbit.

    Accepts a LabeledSimplex in W (all nonzero class sizes equal) for s,
    or a proper nonempty subset of residues (a simplex of
    sigma^{p-1}_{p-2}) for s_0.  Equivariance s(w.x) = w.s(x) holds by
    construction.
    """
    if isinstance(x, LabeledSimplex):
        nonzero = [s for s in x.sizes() if s]
        if not nonzero or len(set(nonzero)) != 1:
            raise ValueError("not in W: nonzero class sizes must be equal")
        keys = [tuple(sorted(x.rotate(-j).labels)) for j in range(x.p)]
    else:
        if p is None:
            raise ValueError("p is required for subset inputs")
        s = frozenset(x)
        if not s or len(s) >= p or not all(0 <= e < p for e in s):
            raise ValueError("expected a proper nonempty subset of residues")
        keys = [tuple(sorted((e - j) % p for e in s)) for j in range(p)]
    # keys[j] is x rotated by -j, so x = w^j applied to it
    least = min(keys)
    if keys.count(least) != 1:
        raise ValueError("rotation orbit is not free")
    return keys.index(least)


# ---------------------------------------------------------------------------
# Equivariant-map search engine
# ---------------------------------------------------------------------------

ORDER = 0  # x < y: level(x) < level(y), or identical labels
NO_CLASH = 1  # x, y share a simplex: equal levels force equal signs
_ORDER_REVERSED = 2  # ORDER with the two sides swapped


class _EquivariantCSP:
    """Search for a Z_p-equivariant labeling by (sign, level).

    Variables are orbit representatives; every element is rep shifted by
    a power of the generator, so assigning a rep fixes its whole orbit.
    Binary constraints relate elements; they are translated to rep-level
    constraints through the shifts.  :meth:`solve` encodes the problem
    as CNF for the clause-learning solver in :mod:`.sat`; the first
    representative's sign is pinned to 0 (composing with a global
    rotation is harmless).
    """

    def __init__(self, p: int, n_orbits: int, levels: int):
        self.p = p
        self.n_orbits = n_orbits
        self.levels = levels
        # constraints[(a, b)] = list of (sa, sb, kind) for rep pairs a <= b
        self.constraints: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        self.infeasible = False

    def add(self, a: int, sa: int, b: int, sb: int, kind: int) -> None:
        """Constrain element w^sa.rep_a against element w^sb.rep_b."""
        if a == b:
            # both elements take the same level; an ORDER constraint in
            # one orbit (or a sign clash) can never be satisfied
            if kind == ORDER or (sa - sb) % self.p:
                self.infeasible = True
            return
        if a < b:
            self.constraints.setdefault((a, b), []).append((sa, sb, kind))
        else:
            flip = _ORDER_REVERSED if kind == ORDER else NO_CLASH
            self.constraints.setdefault((b, a), []).append((sb, sa, flip))

    def solve(self, budget: Optional[SearchBudget] = None) -> Optional[list]:
        """Find a satisfying assignment of (sign, level) per orbit, or None.

        Per orbit, level bools G_j <=> (level > j) in an order encoding,
        and one sign literal per residue: for p = 2 the residues 0 and 1
        are the two phases of one variable, for p >= 3 each residue has
        its own variable and exactly one is true.  ``budget`` counts the
        solver's branching decisions; BudgetExhausted is raised when it
        runs out.
        """
        if self.infeasible:
            return None
        if self.n_orbits == 0:
            return []
        p, L = self.p, self.levels
        nvars_per = L - 1 + (1 if p == 2 else p)

        def g(a: int, j: int) -> int:
            return a * nvars_per + j  # j in 1..L-1

        def sig(a: int, f: int) -> int:
            """The literal "orbit a has sign f"."""
            if p == 2:
                s = a * nvars_per + L
                return s if f else -s
            return a * nvars_per + L + f

        clauses: set[tuple[int, ...]] = set()

        def add(*lits: int) -> None:
            clauses.add(tuple(sorted(set(lits))))

        for a in range(self.n_orbits):
            for j in range(2, L):
                add(-g(a, j), g(a, j - 1))
            if p > 2:
                add(*(sig(a, f) for f in range(p)))
                for f, h in itertools.combinations(range(p), 2):
                    add(-sig(a, f), -sig(a, h))
        add(sig(0, 0))  # pin the first representative's sign

        for (a, b), cs in self.constraints.items():
            for sa, sb, kind in cs:
                # the two elements have equal signs iff sign(a) + d == sign(b)
                d = (sa - sb) % p
                eq = [[-sig(a, (f - d) % p), sig(b, f)] for f in range(p - 1, -1, -1)]
                if kind == NO_CLASH:
                    for j in range(1, L + 1):
                        base = []
                        if j > 1:
                            base += [-g(a, j - 1), -g(b, j - 1)]
                        if j < L:
                            base += [g(a, j), g(b, j)]
                        for c in eq:
                            add(*base, *c)
                else:
                    lo, hi = (a, b) if kind == ORDER else (b, a)
                    for j in range(1, L):
                        add(-g(lo, j), g(hi, j))
                    for j in range(1, L + 1):
                        base = []
                        if j > 1:
                            base.append(-g(lo, j - 1))
                        if j < L:
                            base.append(g(hi, j))
                        for c in eq:
                            add(*base, *c)

        solver = SatSolver(self.n_orbits * nvars_per)
        for c in clauses:
            solver.add_clause(c)
        model = solver.solve(budget)
        if model is None:
            return None

        def holds(lit: int) -> bool:
            return model[abs(lit)] == (lit > 0)

        out = []
        for a in range(self.n_orbits):
            sign = next(f for f in range(p) if holds(sig(a, f)))
            level = 1 + sum(1 for j in range(1, L) if model[g(a, j)])
            out.append((sign, level))
        return out


def _orbit_maps(X, reps: list) -> tuple[dict, dict]:
    """(orbit_of, shift_of) with element = w^shift . reps[orbit_of]."""
    orbit_of = {}
    shift_of = {}
    for a, rep in enumerate(reps):
        x = rep
        for g in range(X.p):
            if x not in shift_of:
                orbit_of[x] = a
                shift_of[x] = g
            x = X.act(1, x)
    return orbit_of, shift_of


def _poset_orbit_structure(P: GPoset):
    """(reps, orbit_of, shift_of); each orbit is represented by its least
    element index."""
    orbits, free = orbit_decomposition(P)
    if not free:
        raise ValueError("the poset is not free")
    reps = [min(o) for o in orbits]
    return (reps, *_orbit_maps(P, reps))


def _search_order_map(
    P: GPoset, n: int, budget: Optional[SearchBudget] = None
) -> Optional[dict[int, tuple[int, int]]]:
    """An order-preserving Z_p-map P -> Q_{n,p}, or None.

    Only the cover pairs x < y are constrained.  That is enough: the
    constraint "level(x) < level(y), or equal levels and equal signs" is
    transitive, and a finite poset joins every comparable pair by a chain
    of covers, so every model also preserves the rest of the order.
    """
    reps, orbit_of, shift_of = _poset_orbit_structure(P)
    csp = _EquivariantCSP(P.p, len(reps), n + 1)
    for x in range(len(P)):
        for y in P.covers[x]:
            csp.add(orbit_of[x], shift_of[x], orbit_of[y], shift_of[y], ORDER)
    sol = csp.solve(budget)
    if sol is None:
        return None
    out = {}
    for x in range(len(P)):
        e, l = sol[orbit_of[x]]
        out[x] = ((e + shift_of[x]) % P.p, l)
    return out


def check_order_map(P: GPoset, psi: dict[int, tuple[int, int]], n: int) -> bool:
    """Independently re-check an order-preserving Z_p-map P -> Q_{n,p}."""
    p = P.p
    for x in range(len(P)):
        e, l = psi[x]
        if not (0 <= e < p and 1 <= l <= n + 1):
            return False
        ex, lx = psi[P.act(1, x)]
        if (ex - e) % p != 1 or lx != l:
            return False
        for y in P.above[x]:
            ey, ly = psi[y]
            if not (l < ly or (l == ly and e == ey)):
                return False
    return True


def _require_checked(ok: bool, what: str) -> None:
    """Refuse a witness that fails its independent checker."""
    if not ok:
        raise RuntimeError(f"internal error: the {what} found fails its re-check")


@dataclass(frozen=True)
class XindResult:
    """Exact cross-index with its witness map (element index -> (eps, level));
    n_max = height - 1 is the largest n the search would have tried, and
    core is the number of elements searched (the beat-point core)."""

    value: int
    n_max: int
    core: int
    witness: Optional[dict] = field(default=None, compare=False)


def xind_exact(P: GPoset, budget: Optional[SearchBudget] = None) -> XindResult:
    """Least n with an order-preserving Z_p-map P -> Q_{n,p}.

    The empty poset has cross-index -1 by convention.  The map
    x -> (sign, height of x) is always order preserving, so the search
    over n = 0 .. n_max = height(P) - 1 always ends in a value; a miss at
    n_max is an internal error.

    Each n is decided on the beat-point core C of P with its retraction
    r: P -> C.  C is an invariant subposet, so a map on P restricts to C
    and an unsatisfiable n on C refutes n on P.  A map phi found on C is
    lifted to psi = phi o r, which is equivariant and order preserving
    because r is; the witness psi has passed :func:`check_order_map` on
    all of P, so a faulty core or retraction raises instead of returning
    a wrong value.
    """
    if len(P) == 0:
        return XindResult(value=-1, n_max=-1, core=0)
    n_max = P.height() - 1
    C, r = beat_core(P)
    for n in range(0, n_max + 1):
        phi = _search_order_map(C, n, budget)
        if phi is not None:
            psi = {x: phi[r[x]] for x in range(len(P))}
            _require_checked(check_order_map(P, psi, n), f"order map for n = {n}")
            return XindResult(value=n, n_max=n_max, core=len(C), witness=psi)
    raise RuntimeError(
        f"internal error: no order map for n = {n_max} = height - 1,"
        " where (sign, height) is one"
    )


# ---------------------------------------------------------------------------
# Certified bracketing of ind_{Z_p}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    kind: str
    bound: int
    witness: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class IndexInterval:
    lower: int
    upper: int
    certificates: tuple[Certificate, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("inconsistent index interval")

    def exact(self) -> Optional[int]:
        return self.lower if self.lower == self.upper else None

    def __str__(self) -> str:
        return f"[{self.lower}, {self.upper}]"


def _complex_orbit_structure(K: SimplicialGComplex):
    """(reps, orbit_of, shift_of); each orbit is represented by its first
    vertex in repr order."""
    orbits, free = orbit_decomposition(K)
    if not free:
        raise ValueError("the complex is not free")
    reps = [o[0] for o in orbits]
    return (reps, *_orbit_maps(K, reps))


def _search_simplicial_map(
    K: SimplicialGComplex, n: int, budget: Optional[SearchBudget] = None
) -> Optional[dict]:
    """A simplicial Z_p-map K -> Z_p^{*(n+1)}, or None.

    A vertex labeling (sign, level) is such a map iff no two vertices of
    a common simplex carry the same level with different signs.
    """
    reps, orbit_of, shift_of = _complex_orbit_structure(K)
    csp = _EquivariantCSP(K.p, len(reps), n + 1)
    seen: set[frozenset] = set()
    for m in K.maximal_simplices:
        for u, v in itertools.combinations(sorted(m, key=repr), 2):
            pair = frozenset((u, v))
            if pair in seen:
                continue
            seen.add(pair)
            csp.add(orbit_of[u], shift_of[u], orbit_of[v], shift_of[v], NO_CLASH)
    sol = csp.solve(budget)
    if sol is None:
        return None
    return {
        v: ((sol[orbit_of[v]][0] + shift_of[v]) % K.p, sol[orbit_of[v]][1])
        for v in K.vertices
    }


def check_simplicial_map(K: SimplicialGComplex, phi: dict, n: int) -> bool:
    """Independently re-check a simplicial Z_p-map K -> Z_p^{*(n+1)}."""
    p = K.p
    for v in K.vertices:
        e, l = phi[v]
        if not (0 <= e < p and 1 <= l <= n + 1):
            return False
        ew, lw = phi[K.act(1, v)]
        if (ew - e) % p != 1 or lw != l:
            return False
    for m in K.maximal_simplices:
        for u, v in itertools.combinations(sorted(m, key=repr), 2):
            if phi[u][1] == phi[v][1] and phi[u][0] != phi[v][0]:
                return False
    return True


def _search_join_embedding(
    K: SimplicialGComplex, size_cap: int, budget: Optional[SearchBudget] = None
) -> tuple[int, Optional[tuple]]:
    """Largest m <= size_cap with an equivariant embedding of
    Z_p^{*(m+1)} as a subcomplex of K; returns (m, representatives).

    Representative i spans copy i of Z_p: the join vertex (eps, i) maps
    to w^eps applied to it.  A set of vertex orbits embeds iff every
    transversal (one vertex from each orbit) is a simplex of K, so the
    search is over sets of orbits, in ``_complex_orbit_structure`` order.
    """
    reps = _complex_orbit_structure(K)[0]
    orbits = [[K.act(eps, v) for eps in range(K.p)] for v in reps]
    budget = budget or SearchBudget()

    best: list = [(-1, None)]

    def embeds(chosen: list) -> bool:
        return all(
            K.is_simplex(frozenset(t))
            for t in itertools.product(*(orbits[a] for a in chosen))
        )

    def rec(chosen: list) -> None:
        budget.tick()
        if len(chosen) - 1 > best[0][0]:
            best[0] = (len(chosen) - 1, tuple(reps[a] for a in chosen))
        if len(chosen) >= size_cap + 1:
            return
        for a in range(chosen[-1] + 1 if chosen else 0, len(reps)):
            if embeds(chosen + [a]):
                rec(chosen + [a])

    rec([])
    return best[0]


def check_join_embedding(K: SimplicialGComplex, reps: Sequence, m: int) -> bool:
    """Independently re-check that the vertex orbits of reps embed
    Z_p^{*(m+1)} into K."""
    if len(reps) != m + 1:
        return False
    for signs in itertools.product(range(K.p), repeat=m + 1):
        simplex = frozenset(K.act(signs[i], reps[i]) for i in range(m + 1))
        if len(simplex) < m + 1 or not K.is_simplex(simplex):
            return False
    return True


def _provenance_lower(K: SimplicialGComplex) -> Optional[Certificate]:
    """Registered lower bounds keyed by how the complex was built."""
    prov = K.provenance
    if not prov:
        return None
    if prov[0] == "sigma_complex":
        _, n, p, alpha = prov
        return Certificate("inequality-3.4", n - alpha - 1, witness=(n, p, alpha))
    if prov[0] == "box":
        _, H, p = prov
        if isinstance(H, Hypergraph) and H.provenance and H.provenance[0] == "kneser":
            F = H.provenance[1]
            alt = alt_min(F, p).value
            return Certificate(
                "inequality-3.5", F.n - alt - 1, witness=(F.n, p, alt)
            )
    return None


_MAX_SEARCH_VERTICES = 400  # ind_bounds searches no larger complex
_MAX_EMBED_DIM = 6  # the largest m of an embedded Z_p^{*(m+1)}


def ind_bounds(
    K: SimplicialGComplex,
    depth: int = 0,
    budget: Optional[SearchBudget] = None,
) -> IndexInterval:
    """Certified interval for ind_{Z_p}(K); K must be free.

    Upper bounds: the dimension of a free complex, and explicit
    simplicial Z_p-maps sd^d(K) -> Z_p^{*(n+1)} for d <= depth (skipped
    for complexes above ``_MAX_SEARCH_VERTICES`` vertices).  Lower bounds:
    equivariant subcomplex embeddings of Z_p^{*(m+1)} for
    m <= ``_MAX_EMBED_DIM``, and inequalities
    registered against the complex's provenance.  Every map and
    embedding certificate has passed :func:`check_simplicial_map` or
    :func:`check_join_embedding`.
    """
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    if not K.is_free():
        raise ValueError("ind bounds require a free complex")
    certificates: list[Certificate] = []
    if not K.vertices:
        return IndexInterval(-1, -1, (Certificate("dimension", -1),))

    upper = K.dim
    certificates.append(Certificate("dimension", K.dim))

    lower = 0  # a nonempty complex has index >= 0
    prov_cert = _provenance_lower(K)
    if prov_cert is not None and prov_cert.bound > lower:
        lower = prov_cert.bound
        certificates.append(prov_cert)

    if len(K.vertices) <= _MAX_SEARCH_VERTICES:
        m, reps = _search_join_embedding(K, min(_MAX_EMBED_DIM, upper), budget)
        if m > lower:
            _require_checked(
                check_join_embedding(K, reps, m), f"subcomplex embedding for m = {m}"
            )
            lower = m
            certificates.append(Certificate("subcomplex-embedding", m, witness=reps))

        level = K
        for d in range(depth + 1):
            if len(level.vertices) > _MAX_SEARCH_VERTICES:
                break
            if d:
                level = barycentric_subdivision(level)
            for n in range(max(lower, 0), upper):
                phi = _search_simplicial_map(level, n, budget)
                if phi is not None:
                    _require_checked(
                        check_simplicial_map(level, phi, n),
                        f"simplicial map for n = {n} at depth {d}",
                    )
                    upper = n
                    certificates.append(
                        Certificate("explicit-map", n, witness=(d, phi))
                    )
                    break

    return IndexInterval(lower, upper, tuple(certificates))
