"""Witness search for the colorful subhypergraph theorems and the
local-chromatic lower-bound formulas.

A colorful witness is a balanced complete r-uniform p-partite
subhypergraph whose parts are rainbow (pairwise distinct colors inside
each part).  Searches are exhaustive and deterministic; when a target
is unreachable the maximum achievable total is reported as a
counterexample verdict, never an exception.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .complexes import hom_poset
from .gindex import _require_checked, xind_exact
from .hypergraph import (
    Coloring,
    Hypergraph,
    PartiteFamily,
    _canonical_colorings,
    _closes_edge,
    _bit_indices,
    _edges_through,
    _links,
    _local_optimum,
    _mask,
    _transversals,
    clique_number,
    independence_number,
    is_complete_partite,
    is_proper,
    neighborhood,
)
from .tucker import Verdict

__all__ = [
    "ColorfulWitness",
    "validate_colorful",
    "find_colorful_balanced",
    "ZigzagWitness",
    "zigzag_check",
    "validate_zigzag",
    "LocalFormulas",
    "local_lower_formulas",
    "LocalReport",
    "certify_local",
    "proper_colorings_canonical",
    "random_proper_coloring",
]


@dataclass(frozen=True)
class ColorfulWitness:
    parts: PartiteFamily
    color_sets: tuple[frozenset[int], ...]

    @property
    def total_size(self) -> int:
        return sum(len(part) for part in self.parts.parts)


def validate_colorful(
    H: Hypergraph, c: Coloring, w: ColorfulWitness, r: Optional[int] = None
) -> Verdict:
    """Re-check the three witness invariants from scratch."""
    r = r or H.uniformity
    parts = w.parts.parts
    if len(w.color_sets) != len(parts):
        return Verdict(False, "counterexample", "one color set per part needed")
    for part, colors in zip(parts, w.color_sets):
        if frozenset(c(v) for v in part) != colors:
            return Verdict(False, "counterexample", "stored colors wrong", witness=(part,))
        if len({c(v) for v in part}) != len(part):
            return Verdict(False, "counterexample", "part not rainbow", witness=(part,))
    if not is_complete_partite(H, w.parts, r):
        return Verdict(False, "counterexample", "not complete r-uniform partite")
    sizes = [len(part) for part in parts]
    if max(sizes) - min(sizes) > 1:
        return Verdict(False, "counterexample", "parts not balanced")
    return Verdict(True, "pass")


def _search_parts(
    H: Hypergraph, c: Coloring, sizes: tuple[int, ...], r: int
) -> Optional[tuple[frozenset[int], ...]]:
    """Lexicographically least tuple of rainbow parts of the given sizes
    spanning a complete r-uniform partite subhypergraph, or None.

    Part i is drawn in ``itertools.combinations`` order from the
    ascending vertices of ``allowed``: the unused vertices w with S + w
    an edge for every (r-1)-transversal S of the parts before it.  Each
    placed part narrows ``allowed`` by ``links[S]`` (see
    :func:`hypergraph._links`) for each new S, a vertex of the part with
    an (r-2)-transversal of the earlier parts; in a graph, by each placed
    vertex's neighbours.  The combinations skipped hold no witness, so
    the first hit is the lexicographically least one.
    """
    links = _links(H)

    def rec(i: int, masks: list[int], allowed: int) -> Optional[tuple]:
        if i == len(sizes):
            return tuple(frozenset(_bit_indices(m)) for m in masks)
        earlier = _transversals(masks, r - 2)
        for combo in itertools.combinations(_bit_indices(allowed), sizes[i]):
            if len({c(v) for v in combo}) != len(combo):
                continue
            rest = allowed
            for v in combo:
                bit = 1 << v
                rest &= ~bit
                for t in earlier:
                    rest &= links.get(t | bit, 0)
            masks.append(_mask(combo))
            hit = rec(i + 1, masks, rest)
            if hit:
                return hit
            masks.pop()
        return None

    return rec(0, [], _mask(H.vertices))


def find_colorful_balanced(
    H: Hypergraph, c: Coloring, p: int, target: int
) -> ColorfulWitness | Verdict:
    """A colorful balanced complete r-uniform p-partite subhypergraph on
    ``target`` vertices; if none exists (falsifying the theorem when
    the target is a certified bound), the verdict carries the largest
    achievable total and its witness.  Every witness is re-checked by
    ``validate_colorful`` before it is returned."""
    r = H.uniformity
    if r is None:
        raise ValueError("H must be uniform")
    if p < 1:
        raise ValueError("p must be positive")
    if target < 0:
        raise ValueError("target must be nonnegative")
    if not is_proper(H, c):
        raise ValueError("c is not a proper coloring of H")
    best: Optional[ColorfulWitness] = None
    for total in range(target, -1, -1):
        a, b = total // p, total % p
        sizes = (a + 1,) * b + (a,) * (p - b)
        parts = _search_parts(H, c, sizes, r)
        if parts is not None:
            w = ColorfulWitness(
                PartiteFamily(parts),
                tuple(frozenset(c(v) for v in part) for part in parts),
            )
            _require_checked(validate_colorful(H, c, w, r).ok, "colorful witness")
            if total >= target:
                return w
            best = w
            break
    return Verdict(
        False,
        "counterexample",
        f"target {target} unreachable; maximum achievable total is "
        f"{best.total_size if best else 0}",
        witness=(best,),
    )


# ---------------------------------------------------------------------------
# Zig-zag witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZigzagWitness:
    side_a: frozenset[int]
    side_b: frozenset[int]
    colors: tuple[int, ...]  # all colors, sorted increasing


def validate_zigzag(
    G: Hypergraph, c: Coloring, w: ZigzagWitness, t: int
) -> Verdict:
    """Re-check a zig-zag witness for total size t from scratch."""
    A, B = w.side_a, w.side_b

    def refuse(detail: str) -> Verdict:
        return Verdict(False, "counterexample", detail, witness=(w,))

    if A & B:
        return refuse("sides overlap")
    if not (A | B) <= set(G.vertices):
        return refuse("vertex out of range")
    if (len(A), len(B)) != (math.ceil(t / 2), t // 2):
        return refuse(f"side sizes {len(A)}, {len(B)} for t = {t}")
    eset = G.edge_set()
    if any(frozenset((u, v)) not in eset for u in A for v in B):
        return refuse("not complete bipartite")
    ranked = sorted((c(v), v in B) for v in A | B)
    colors = tuple(color for color, _ in ranked)
    if len(set(colors)) != len(colors):
        return refuse("not rainbow")
    if any(x[1] == y[1] for x, y in zip(ranked, ranked[1:])):
        return refuse("colors do not alternate between the sides")
    if colors != tuple(w.colors):
        return refuse("stored colors wrong")
    return Verdict(True, "pass")


def zigzag_check(
    G: Hypergraph, c: Coloring, t: Optional[int] = None
) -> ZigzagWitness | Verdict:
    """A totally multicolored K_{ceil(t/2),floor(t/2)} whose colors,
    in increasing order, alternate between the two sides; t defaults to
    Xind(Hom(K_2,G)) + 2.

    The witness is the lexicographically least pair (A, B): side A runs
    in ``itertools.combinations`` order over the sorted vertices, and
    side B likewise over the sorted common neighbours of A.  Every B
    this skips has a vertex that fails the edge test, and as c is
    proper no common neighbour has a color of A.  The witness is
    re-checked by ``validate_zigzag`` before it is returned.
    """
    if G.uniformity != 2:
        raise ValueError("zig-zag needs a graph")
    if not is_proper(G, c):
        raise ValueError("c is not a proper coloring of G")
    if t is None:
        t = xind_exact(hom_poset(G, 2, 2)).value + 2
    if t < 0:
        raise ValueError("t must be nonnegative")
    sa, sb = math.ceil(t / 2), t // 2
    verts = sorted(G.vertices)
    links = _links(G)
    everyone = sum(1 << v for v in verts)

    def alternates(A: tuple[int, ...], B: tuple[int, ...]) -> bool:
        ranked = sorted([(c(v), 0) for v in A] + [(c(v), 1) for v in B])
        return all(x[1] != y[1] for x, y in zip(ranked, ranked[1:]))

    for A in itertools.combinations(verts, sa):
        colors_a = {c(v) for v in A}
        if len(colors_a) != sa:
            continue
        common = everyone
        for v in A:
            common &= links.get(1 << v, 0)
        rest = [v for v in verts if common >> v & 1]
        for B in itertools.combinations(rest, sb):
            colors_b = {c(v) for v in B}
            if len(colors_b) != sb:
                continue
            if alternates(A, B):
                w = ZigzagWitness(
                    frozenset(A),
                    frozenset(B),
                    tuple(sorted(colors_a | colors_b)),
                )
                _require_checked(validate_zigzag(G, c, w, t).ok, "zig-zag witness")
                return w
    return Verdict(
        False,
        "counterexample",
        f"no alternating multicolored K_{{{sa},{sb}}} found",
    )


# ---------------------------------------------------------------------------
# Local chromatic number: formulas and certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalFormulas:
    t: int
    p: int
    r: int
    a: int
    b: int
    bound: int  # the two-case minimum
    graph_bound: int  # t - floor(t/p) + 1
    independence_bound: Optional[int] = None
    degenerate: bool = False  # t = 0 edge case


def local_lower_formulas(
    t: int, p: int, r: int = 2, F: Optional[Hypergraph] = None
) -> LocalFormulas:
    """The local-chromatic lower bounds as pure arithmetic.

    ``bound`` is min(ceil(((p-r+1)a + min(p-r+1,b))/(r-1)) + 1,
    ceil(t/(r-1))) with t = ap + b; ``graph_bound`` is t - floor(t/p) + 1.
    With F given, also ceil((p-1)|V(F)|/p) - (p-1)*alpha(F) + 1.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if p < r:
        raise ValueError("requires p >= r")
    a, b = divmod(t, p)
    first = math.ceil(((p - r + 1) * a + min(p - r + 1, b)) / (r - 1)) + 1
    second = math.ceil(t / (r - 1))
    bound = min(first, second)
    graph_bound = t - a + 1
    ind_bound = None
    if F is not None:
        ind_bound = (
            math.ceil((p - 1) * F.n / p) - (p - 1) * independence_number(F) + 1
        )
    return LocalFormulas(t, p, r, a, b, bound, graph_bound, ind_bound, t == 0)


@dataclass(frozen=True)
class CaseCertificate:
    """White-box re-enactment of the two-case local-chromatic argument."""

    case: int  # 1 or 2
    edge: frozenset[int]
    pivot: int  # the vertex u with e ∩ U_{p-r+1} = {u}
    extra_vertex: Optional[int]  # the fresh-colored v of case 1
    union_colors: frozenset[int]
    neighborhood_colors: frozenset[int]
    ok: bool


@dataclass(frozen=True)
class LocalReport:
    applicable: bool
    t: Optional[int] = None
    formulas: Optional[LocalFormulas] = None
    chi_local: Optional[int] = None
    bound_holds: Optional[bool] = None
    witness: Optional[ColorfulWitness] = field(default=None, compare=False)
    case_certificate: Optional[CaseCertificate] = field(default=None, compare=False)
    detail: str = ""


def _reenact_cases(
    H: Hypergraph, c: Coloring, w: ColorfulWitness, p: int, t: int
) -> Optional[CaseCertificate]:
    """Locate the edge e, pivot u (and vertex v in case 1) of the proof
    and verify the claimed color-set inclusion in c(N[e \\ {u}])."""
    r = H.uniformity
    # order parts big-to-small so the first b have size a+1
    parts = sorted(w.parts.parts, key=len, reverse=True)
    head, tail = parts[: p - r + 1], parts[p - r + 1 :]
    union_colors = frozenset(c(v) for part in head for v in part)
    eset = H.edge_set()
    case = 1 if len(union_colors) < math.ceil(t / (r - 1)) else 2
    fresh = None
    if case == 1:
        fresh = next(
            (
                v
                for part in tail
                for v in sorted(part)
                if c(v) not in union_colors
            ),
            None,
        )
        if fresh is None:
            return None
    # an edge transversal to U_{p-r+1}, ..., U_p (through v in case 1)
    pivot_part = head[-1]
    for u in sorted(pivot_part):
        pools = [
            [fresh] if (fresh is not None and fresh in part) else sorted(part)
            for part in tail
        ]
        for rest in itertools.product(*pools):
            e = frozenset((u,) + rest)
            if len(e) == r and e in eset and (fresh is None or fresh in e):
                X = e - {u}
                closed = X | neighborhood(H, X)
                ncolors = frozenset(c(v) for v in closed)
                want = union_colors | ({c(fresh)} if fresh is not None else set())
                return CaseCertificate(
                    case, e, u, fresh, union_colors, ncolors, want <= ncolors
                )
    return None


def certify_local(H: Hypergraph, p: int) -> LocalReport:
    """Certify the Xind-based local-chromatic lower bound on H.

    Computes t = Xind(Hom(K^r_p, H)) + p, compares the formula bound
    with the exact local chromatic number, and re-enacts the two-case
    proof argument on a concrete colorful witness.
    """
    r = H.uniformity
    if r is None or not H.edges:
        raise ValueError("H must be uniform with at least one edge")
    if not (r <= p):
        raise ValueError("requires r <= p")
    if clique_number(H) < p:
        return LocalReport(False, detail="precondition unmet: omega(H) < p")
    t = xind_exact(hom_poset(H, r, p)).value + p
    formulas = local_lower_formulas(t, p, r)
    chi_l, optimal = _local_optimum(H)
    holds = chi_l >= formulas.bound
    # white-box: re-run the proof's argument on the first optimal coloring
    c = Coloring(optimal, palette_size=H.n)
    found = find_colorful_balanced(H, c, p, t)
    witness = found if isinstance(found, ColorfulWitness) else None
    cert = _reenact_cases(H, c, witness, p, t) if witness else None
    return LocalReport(
        True,
        t=t,
        formulas=formulas,
        chi_local=chi_l,
        bound_holds=holds,
        witness=witness,
        case_certificate=cert,
    )


# ---------------------------------------------------------------------------
# Coloring corpora
# ---------------------------------------------------------------------------


def proper_colorings_canonical(
    H: Hypergraph, max_colors: int
) -> Iterator[Coloring]:
    """All proper colorings up to color permutation."""
    for assignment in _canonical_colorings(H, max_colors):
        yield Coloring(assignment, palette_size=max_colors)


def random_proper_coloring(
    H: Hypergraph, max_colors: int, rng: random.Random
) -> Coloring:
    """A seeded random proper coloring: random vertex order, uniform
    choice among the colors not closing a monochromatic edge."""
    through = _edges_through(H)
    for _ in range(1000):
        order = list(H.vertices)
        rng.shuffle(order)
        assignment = [0] * (H.n + 1)
        class_mask = [0] * (max_colors + 1)
        ok = True
        for v in order:
            vbit = 1 << v
            feasible = [
                col
                for col in range(1, max_colors + 1)
                if not _closes_edge(through[v], class_mask[col] | vbit)
            ]
            if not feasible:
                ok = False
                break
            col = rng.choice(feasible)
            assignment[v] = col
            class_mask[col] |= vbit
        if ok:
            return Coloring(tuple(assignment[1:]), palette_size=max_colors)
    raise ValueError(f"no proper coloring with {max_colors} colors found")
