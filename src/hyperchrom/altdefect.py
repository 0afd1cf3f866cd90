"""Alternation numbers and the r-colorability defect.

Signed vectors live in (Z_p u {0})^n.  Entry 0 is the zero marker;
entries 1..p stand for the group elements w^1..w^p, so the zero marker
never collides with a group residue.  ``_signed_order`` tables their
containment order and rotation action once per (n, p).
"""

from __future__ import annotations

import collections
import functools
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .hypergraph import (
    Hypergraph,
    SearchBudget,
    _canonical_colorings,
    _closes_edge,
    _degree_order,
    _edges_through,
    automorphisms,
)

__all__ = [
    "SignedVector",
    "Ordering",
    "alt_of_vector",
    "alt_sigma",
    "alt_min",
    "AltResult",
    "colorability_defect",
    "signed_vectors",
    "signed_orbit_representative",
]


@dataclass(frozen=True)
class SignedVector:
    """Vector over Z_p u {0}; entries[i] == 0 marks zero, 1..p marks w^e."""

    entries: tuple[int, ...]
    p: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("modulus must be at least 2")
        if any(not 0 <= x <= self.p for x in self.entries):
            raise ValueError("entries must lie in 0..p")

    @property
    def n(self) -> int:
        return len(self.entries)

    def support(self) -> frozenset[int]:
        return frozenset(i + 1 for i, x in enumerate(self.entries) if x)

    def sign_class(self, eps: int) -> frozenset[int]:
        """X^eps: 1-based positions carrying group element eps (1..p)."""
        return frozenset(i + 1 for i, x in enumerate(self.entries) if x == eps)

    def rotate(self, k: int) -> "SignedVector":
        """Multiply every nonzero entry by w^k."""
        return SignedVector(
            tuple(0 if x == 0 else (x - 1 + k) % self.p + 1 for x in self.entries),
            self.p,
        )

    def issubset(self, other: "SignedVector") -> bool:
        if self.p != other.p or self.n != other.n:
            raise ValueError("mismatched vectors")
        return all(a == 0 or a == b for a, b in zip(self.entries, other.entries))


@dataclass(frozen=True)
class Ordering:
    """Bijection from positions 1..n to vertices of H."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError("not a bijection onto 1..n")

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def map_positions(self, positions: Iterable[int]) -> frozenset[int]:
        return frozenset(self.images[i - 1] for i in positions)


def alt_of_vector(X: SignedVector) -> int:
    """Longest subsequence of nonzero entries with consecutive terms distinct.

    Equals the number of maximal runs among the nonzero entries.
    """
    count = 0
    last = 0
    for x in X.entries:
        if x and x != last:
            count += 1
            last = x
    return count


def alt_sigma(
    H: Hypergraph,
    p: int,
    sigma: Optional[Ordering] = None,
    stop_at: Optional[int] = None,
    budget: Optional[SearchBudget] = None,
) -> int:
    """alt_p(H, sigma): max alt(X) over X whose sign classes induce no edge.

    Depth-first over positions with independence pruning; ``stop_at``
    aborts early once the running maximum reaches that threshold.
    """
    if p < 2:
        raise ValueError("modulus must be at least 2")
    n = H.n
    sigma = sigma or Ordering(tuple(range(1, n + 1)))
    through = _edges_through(H)
    budget = budget or SearchBudget()
    best = 0
    class_mask = [0] * (p + 1)

    def rec(i: int, last: int, alt: int) -> None:
        nonlocal best
        budget.tick()
        if alt > best:
            best = alt
        if stop_at is not None and best >= stop_at:
            return
        if i > n or alt + (n - i + 1) <= best:
            return
        v = sigma(i)
        vbit = 1 << v
        for eps in range(1, p + 1):
            new = class_mask[eps] | vbit
            if _closes_edge(through[v], new):
                continue
            class_mask[eps] = new
            rec(i + 1, eps, alt + (1 if eps != last else 0))
            class_mask[eps] = new & ~vbit
            if stop_at is not None and best >= stop_at:
                return
        rec(i + 1, last, alt)

    rec(1, 0, 0)
    return best


_SAMPLED_ORDERINGS = 200  # random orderings alt_min tries in sampled mode


@dataclass(frozen=True)
class AltResult:
    value: int
    exact: bool
    ordering: Ordering


def alt_min(
    H: Hypergraph,
    p: int,
    mode: str = "exact",
    seed: int = 0,
    budget: Optional[SearchBudget] = None,
) -> AltResult:
    """alt_p(H): minimum of alt_sigma over orderings.

    Exact mode enumerates orderings whose prefixes are lexicographically
    minimal within their automorphism-group orbit.  Sampled mode tries
    the identity and ``_SAMPLED_ORDERINGS`` seeded random orderings, and reports an
    upper bound on alt_p(H).
    """
    n = H.n
    if mode not in ("exact", "sampled"):
        raise ValueError("mode must be 'exact' or 'sampled'")
    budget = budget or SearchBudget()

    best: Optional[int] = None
    best_sigma = Ordering(tuple(range(1, n + 1)))

    def consider(images: tuple[int, ...]) -> None:
        nonlocal best, best_sigma
        sigma = Ordering(images)
        val = alt_sigma(H, p, sigma, stop_at=best, budget=budget)
        if best is None or val < best:
            best, best_sigma = val, sigma

    if mode == "sampled":
        rng = random.Random(seed)
        consider(tuple(range(1, n + 1)))
        base = list(range(1, n + 1))
        for _ in range(_SAMPLED_ORDERINGS):
            rng.shuffle(base)
            consider(tuple(base))
        assert best is not None
        return AltResult(value=best, exact=False, ordering=best_sigma)

    auts = automorphisms(H)

    def canonical_prefix(prefix: tuple[int, ...]) -> bool:
        return all(
            tuple(a[v - 1] for v in prefix) >= prefix for a in auts
        )

    def rec(prefix: tuple[int, ...], remaining: frozenset[int]) -> None:
        if not remaining:
            consider(prefix)
            return
        for v in sorted(remaining):
            cand = prefix + (v,)
            if canonical_prefix(cand):
                rec(cand, remaining - {v})

    rec((), frozenset(range(1, n + 1)))
    assert best is not None
    return AltResult(value=best, exact=True, ordering=best_sigma)


def _r_colorable(H: Hypergraph, keep: frozenset[int], r: int) -> bool:
    """Is the subhypergraph H induces on ``keep`` properly r-colorable?
    Only the vertices of ``keep`` are colored, so only the edges inside
    it can close."""
    order = _degree_order(H, keep)
    return next(_canonical_colorings(H, r, order=order), None) is not None


def colorability_defect(H: Hypergraph, r: int) -> int:
    """cd_r(H): fewest vertex removals leaving an r-colorable hypergraph."""
    if r < 2:
        raise ValueError("r must be at least 2")
    verts = list(H.vertices)
    for s in range(0, H.n + 1):
        for removed in itertools.combinations(verts, s):
            keep = frozenset(verts) - set(removed)
            if _r_colorable(H, keep, r):
                return s
    return H.n


def signed_vectors(n: int, p: int) -> Iterator[SignedVector]:
    """All nonzero vectors in (Z_p u {0})^n."""
    for entries in itertools.product(range(p + 1), repeat=n):
        if any(entries):
            yield SignedVector(entries, p)


def signed_orbit_representative(X: SignedVector) -> SignedVector:
    """Lexicographically least vector in the rotation orbit of X."""
    return min((X.rotate(k) for k in range(X.p)), key=lambda y: y.entries)


@dataclass(frozen=True)
class _SignedOrder:
    """The nonzero signed vectors of (Z_p u {0})^n as integer tables.

    Positions index ``vectors`` (lexicographic order).  Orbit
    representative i is the lexicographically least member of its
    rotation orbit; the vector ``reps[i].rotate(k)`` has code p*i + k.

    The representatives run by support size, lexicographically within
    one size, except that the largest layer (the support size with the
    most representatives; ties go to the larger size) comes last, as
    ``reps[top:]``.  Vectors of one support size are never strictly
    comparable, so every layer is an antichain.  At n = 2 this is the
    lexicographic order.
    """

    vectors: tuple  # SignedVector, lexicographic
    sup: tuple  # sup[v]: positions of the strict supersets of vectors[v]
    sub: tuple  # sub[v]: positions of the strict subsets of vectors[v]
    rot: tuple  # rot[v]: position of vectors[v].rotate(1)
    reps: tuple  # positions of the orbit representatives
    code: tuple  # code[v] = p*i + k when vectors[v] == vectors[reps[i]].rotate(k)
    # (a, i, d), a < i: a comparable pair of members of orbits a and i
    # carries one sign exactly when sign(i) - sign(a) = d (mod p)
    pairs: tuple
    cons: tuple  # cons[i]: (a, d) per (a, i, d) in pairs; d = -1 if d varies
    top: int  # reps[top:]: the largest layer


@functools.lru_cache(maxsize=16)
def _signed_order(n: int, p: int) -> _SignedOrder:
    vectors = tuple(signed_vectors(n, p))  # itertools.product: lexicographic
    index = {X.entries: v for v, X in enumerate(vectors)}
    # the strict supersets of X fill some of its zero entries; itertools
    # product keeps them lexicographic, and the all-zero fill is X itself
    sup: list[tuple] = []
    sub: list[list] = [[] for _ in vectors]
    for v, X in enumerate(vectors):
        zeros = [a for a, x in enumerate(X.entries) if x == 0]
        entries = list(X.entries)
        ups = []
        for fill in itertools.product(range(p + 1), repeat=len(zeros)):
            for a, x in zip(zeros, fill):
                entries[a] = x
            ups.append(index[tuple(entries)])
        sup.append(tuple(ups[1:]))
        for w in ups[1:]:
            sub[w].append(v)
    rot = tuple(index[X.rotate(1).entries] for X in vectors)
    size = [len(X.support()) for X in vectors]
    leaders = [v for v, X in enumerate(vectors) if X == signed_orbit_representative(X)]
    layer = collections.Counter(size[v] for v in leaders)
    last = max(layer, key=lambda z: (layer[z], z), default=0)
    # stable, so lexicographic within one support size
    reps = sorted(leaders, key=lambda v: (size[v] == last, size[v]))
    code = [0] * len(vectors)
    for i, v in enumerate(reps):
        w = v
        for k in range(p):
            code[w] = p * i + k
            w = rot[w]
    pairs = set()
    for x, ys in enumerate(sup):
        for y in ys:
            # rotation preserves support size, so x and y lie in distinct orbits
            (a, ka), (i, ki) = sorted((divmod(code[x], p), divmod(code[y], p)))
            pairs.add((a, i, (ka - ki) % p))
    pairs = sorted(pairs)
    offsets: list[dict] = [{} for _ in reps]
    for a, i, d in pairs:
        offsets[i][a] = d if offsets[i].get(a, d) == d else -1
    top = len(reps) - layer[last]
    return _SignedOrder(
        vectors,
        tuple(sup),
        tuple(map(tuple, sub)),
        rot,
        tuple(reps),
        tuple(code),
        tuple(pairs),
        tuple(tuple(sorted(o.items())) for o in offsets),
        top,
    )
