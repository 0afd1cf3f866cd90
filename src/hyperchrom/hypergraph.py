"""Hypergraphs, colorings, and exact chromatic computations.

Vertices are always 1..n.  Edges are canonical frozensets backed by
bitmasks (bit v set for vertex v, in every mask), since subset tests
dominate the search routines.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from math import comb, inf
from typing import Iterable, Optional

__all__ = [
    "Hypergraph",
    "Coloring",
    "PartiteFamily",
    "SearchBudget",
    "BudgetExhausted",
    "ChromaticResult",
    "build_hypergraph",
    "complete_hypergraph",
    "induced",
    "is_complete_partite",
    "clique_number",
    "independence_number",
    "is_proper",
    "chromatic_number",
    "local_chromatic_number",
    "kneser",
    "usual_kneser",
    "automorphisms",
    "parse_hypergraph",
    "format_hypergraph",
]


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@functools.lru_cache(maxsize=16)
def _edges_through(H: Hypergraph) -> list[list[int]]:
    """Entry v lists the masks of the edges of H that contain v, as
    :func:`_closes_edge` reads them.  Cached, as the colorability defect
    searches one hypergraph once per removal set: callers must not change
    the table."""
    through: list[list[int]] = [[] for _ in range(H.n + 1)]
    for e in H.edges:
        m = _mask(e)
        for v in e:
            through[v].append(m)
    return through


def _closes_edge(through_v: list[int], class_mask: int) -> bool:
    """The monochromatic-edge test of every coloring search: does a class
    with no edge contain one once it gains v?  ``through_v`` is entry v of
    :func:`_edges_through`, ``class_mask`` the class with v added.  (A loop:
    ``any`` over a generator costs several times more on lists this short.)"""
    for e in through_v:
        if e & ~class_mask == 0:
            return True
    return False


def _bit_indices(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _neighbour_masks(H: Hypergraph) -> list[int]:
    """Bit w of entry v is set iff v and w share an edge of the r-uniform
    H and every r-set of vertices holding both is an edge: for a graph,
    iff vw is an edge."""
    adj = [0] * (H.n + 1)
    count = Counter(pair for e in H.edges for pair in itertools.combinations(sorted(e), 2))
    for (u, w), k in count.items():
        if k == comb(H.n - 2, H.uniformity - 2):
            adj[u] |= 1 << w
            adj[w] |= 1 << u
    return adj


@functools.lru_cache(maxsize=16)
def _links(H: Hypergraph) -> dict[int, int]:
    """Maps each mask S of an edge less one vertex to the mask of the
    vertices w with S + w an edge; for a graph, S = {v} maps to the
    neighbours of v.  An S on no edge has no entry.  Cached, as witness
    searches read one hypergraph's table once per coloring: callers
    must not change it."""
    links: dict[int, int] = {}
    for e in H.edges:
        m = _mask(e)
        for v in e:
            bit = 1 << v
            links[m ^ bit] = links.get(m ^ bit, 0) | bit
    return links


def _transversals(parts: Iterable[int], k: int) -> list[int]:
    """The masks of the k-sets that take one vertex from each of k
    distinct parts, the parts given as masks; ``[0]`` when k = 0."""
    return [
        _mask(t)
        for chosen in itertools.combinations(parts, k)
        for t in itertools.product(*map(_bit_indices, chosen))
    ]


class BudgetExhausted(Exception):
    """Raised internally when a search exceeds its node budget."""


@dataclass
class SearchBudget:
    """Node budget for exhaustive searches.  ``None`` means unlimited."""

    max_nodes: Optional[int] = None
    nodes: int = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExhausted()


@dataclass(frozen=True)
class Hypergraph:
    """Finite hypergraph on vertex set 1..n with canonical edge storage.

    ``uniformity`` is set automatically when all edges share one size.
    ``provenance`` records how the instance was built (e.g. a Kneser
    construction), which downstream index computations may exploit.
    """

    n: int
    edges: tuple[frozenset[int], ...]
    uniformity: Optional[int] = None
    provenance: Optional[tuple] = field(default=None, compare=False)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def edge_set(self) -> frozenset[frozenset[int]]:
        return frozenset(self.edges)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def __repr__(self) -> str:
        r = f", r={self.uniformity}" if self.uniformity else ""
        return f"Hypergraph(n={self.n}, m={len(self.edges)}{r})"


@dataclass(frozen=True)
class Coloring:
    """Total coloring of 1..n; vertex v gets ``assignment[v-1]``."""

    assignment: tuple[int, ...]
    palette_size: int

    def __post_init__(self):
        for c in self.assignment:
            if not 1 <= c <= self.palette_size:
                raise ValueError(f"color {c} outside palette 1..{self.palette_size}")

    def __call__(self, v: int) -> int:
        return self.assignment[v - 1]


@dataclass(frozen=True)
class PartiteFamily:
    """Ordered tuple of pairwise disjoint vertex subsets.

    Order is significant: cyclic group actions rotate it.
    """

    parts: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for part in self.parts:
            if seen & part:
                raise ValueError("parts must be pairwise disjoint")
            seen |= part

    @property
    def union(self) -> frozenset[int]:
        return frozenset().union(*self.parts) if self.parts else frozenset()

    def __len__(self) -> int:
        return len(self.parts)


def build_hypergraph(
    n: int, edges: Iterable[Iterable[int]], provenance: Optional[tuple] = None
) -> Hypergraph:
    """Canonicalize, deduplicate, and validate an edge list."""
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    canon: set[frozenset[int]] = set()
    for e in edges:
        fe = frozenset(e)
        if not fe:
            raise ValueError("empty edge")
        if not all(1 <= v <= n for v in fe):
            raise ValueError(f"edge {sorted(fe)} out of range 1..{n}")
        canon.add(fe)
    ordered = tuple(sorted(canon, key=sorted))
    sizes = {len(e) for e in ordered}
    r = sizes.pop() if len(sizes) == 1 else None
    return Hypergraph(n=n, edges=ordered, uniformity=r, provenance=provenance)


def complete_hypergraph(n: int, r: int) -> Hypergraph:
    """K_n^r: all r-subsets of 1..n as edges."""
    if r < 1 or r > n:
        raise ValueError("need 1 <= r <= n")
    edges = itertools.combinations(range(1, n + 1), r)
    return build_hypergraph(n, edges, provenance=("complete", n, r))


def induced(H: Hypergraph, U: Iterable[int]) -> tuple[Hypergraph, dict[int, int]]:
    """Induced subhypergraph on U, relabeled to 1..|U|.

    Returns the subhypergraph and the map from old to new labels.
    """
    Uset = sorted(set(U))
    if any(v not in H.vertices for v in Uset):
        raise ValueError("U out of range")
    relabel = {v: i + 1 for i, v in enumerate(Uset)}
    edges = [
        frozenset(relabel[v] for v in e) for e in H.edges if e <= set(Uset)
    ]
    if not Uset:
        raise ValueError("empty vertex set")
    return build_hypergraph(len(Uset), edges), relabel


def is_complete_partite(H: Hypergraph, P: PartiteFamily, r: int) -> bool:
    """True iff every r-subset of the union meeting each part <= 1 is an edge.

    Vacuously true when fewer than r parts are nonempty (no such
    r-subset exists).
    """
    if H.uniformity is not None and H.uniformity != r:
        raise ValueError("H is not r-uniform")
    nonempty = [part for part in P.parts if part]
    if len(nonempty) < r:
        return True
    eset = H.edge_set()
    for chosen in itertools.combinations(nonempty, r):
        for combo in itertools.product(*chosen):
            if frozenset(combo) not in eset:
                return False
    return True


def clique_number(H: Hypergraph) -> int:
    """Largest m such that some m-set of vertices carries all its r-subsets.

    Returns r-1 when no edge-complete r-set exists.
    """
    r = H.uniformity
    if r is None:
        raise ValueError("clique number requires a uniform hypergraph")
    eset = H.edge_set()
    best = r - 1

    def extend(cliq: list[int], candidates: list[int]) -> None:
        nonlocal best
        best = max(best, len(cliq))
        for i, v in enumerate(candidates):
            if len(cliq) + len(candidates) - i <= best:
                return
            if len(cliq) >= r - 1:
                ok = all(
                    frozenset(sub) | {v} in eset
                    for sub in itertools.combinations(cliq, r - 1)
                )
                if not ok:
                    continue
            extend(cliq + [v], candidates[i + 1 :])

    extend([], list(H.vertices))
    return best


def independence_number(H: Hypergraph) -> int:
    """Largest vertex set inducing no edge."""
    through = _edges_through(H)
    n = H.n
    best = 0

    def extend(smask: int, size: int, v: int) -> None:
        nonlocal best
        best = max(best, size)
        for u in range(v, n + 1):
            if size + (n - u + 1) <= best:
                return
            cand = smask | 1 << u
            if not _closes_edge(through[u], cand):
                extend(cand, size + 1, u + 1)

    extend(0, 0, 1)
    return best


def is_proper(H: Hypergraph, c: Coloring) -> bool:
    """True iff no edge of H is monochromatic under c."""
    if len(c.assignment) != H.n:
        raise ValueError("coloring is not total on V(H)")
    for e in H.edges:
        it = iter(e)
        first = c(next(it))
        if all(c(v) == first for v in it):
            return False
    return True


@dataclass(frozen=True)
class ChromaticResult:
    """Exact value (or a bracket when the budget runs out)."""

    value: float  # int, or math.inf for hypergraphs with singleton edges
    coloring: Optional[Coloring]
    exact: bool
    lower: int = 0

    def __int__(self) -> int:
        if self.value is inf:
            raise ValueError("chromatic number is infinite")
        return int(self.value)


def _degree_order(H: Hypergraph, keep: frozenset[int]) -> list[int]:
    """``keep`` in decreasing order of degree in the subhypergraph H
    induces on it, ties by index."""
    degree = Counter(v for e in H.edges if e <= keep for v in e)
    return sorted(keep, key=lambda v: (-degree[v], v))


def chromatic_number(H: Hypergraph, budget: Optional[SearchBudget] = None) -> ChromaticResult:
    """Exact chromatic number by iterative deepening: the first canonical
    t-coloring in decreasing-degree order, for t = 1, 2, ...

    Returns ``inf`` when some edge is a singleton.  On budget
    exhaustion, returns the best bracket found, flagged inexact.
    """
    if any(len(e) == 1 for e in H.edges):
        return ChromaticResult(value=inf, coloring=None, exact=True)
    budget = budget or SearchBudget()
    order = _degree_order(H, frozenset(H.vertices))
    lower = 2 if H.edges else 1
    t = 1 if not H.edges else 2
    while True:
        try:
            sol = next(_canonical_colorings(H, t, budget, order), None)
        except BudgetExhausted:
            return ChromaticResult(value=t, coloring=None, exact=False, lower=lower)
        if sol is not None:
            col = Coloring(sol, palette_size=t)
            return ChromaticResult(value=t, coloring=col, exact=True, lower=t)
        lower = t + 1
        t += 1


def _canonical_colorings(
    H: Hypergraph, max_colors: int, budget: Optional[SearchBudget] = None, order=None
):
    """Yield proper colorings of H canonical under color permutation.

    The vertices are colored in ``order`` (default 1..n), each with at
    most one color beyond those its predecessors use; a vertex outside
    ``order`` keeps color 0, so an edge through it never closes.
    Prefixes that already close a monochromatic edge are pruned; each
    such test is one node of ``budget``.  The search keeps its own
    stack: ``color[i]`` is position i's color (0 before its first try)
    and ``used[i]`` the number of colors before position i.
    """
    budget = budget or SearchBudget()
    order = list(H.vertices) if order is None else order
    k = len(order)
    through = _edges_through(H)
    assignment = [0] * H.n
    class_mask = [0] * (max_colors + 1)  # slot 0 is scratch
    color = [0] * k
    used = [0] * (k + 1)
    i = 0
    while i >= 0:
        if i == k:
            yield tuple(assignment)
            i -= 1
            continue
        v = order[i]
        vbit = 1 << v
        c = color[i]
        class_mask[c] &= ~vbit
        top = min(used[i] + 1, max_colors)
        while c < top:
            c += 1
            budget.tick()
            new_mask = class_mask[c] | vbit
            if not _closes_edge(through[v], new_mask):
                class_mask[c] = new_mask
                assignment[v - 1] = color[i] = c
                used[i + 1] = max(used[i], c)
                i += 1
                break
        else:
            color[i] = 0
            i -= 1


def neighborhood(H: Hypergraph, X: frozenset[int]) -> frozenset[int]:
    """N(X): vertices completing some edge all but one of which lies in X."""
    out = set()
    for e in H.edges:
        rest = e - X
        if len(rest) == 1:
            out |= rest
    return frozenset(out)


def _local_palettes(H: Hypergraph):
    """The palette function of :func:`local_palette` for one hypergraph.

    The closed neighbourhoods X + N(X), for X an edge less one vertex,
    are built once from :func:`_links`; for a graph they are the closed
    vertex neighbourhoods.  The returned function maps a color assignment
    (vertex v has color ``assignment[v-1]``) to the largest number of
    colors on one of them.
    """
    if H.uniformity is None or not H.edges:
        raise ValueError("local chromatic number needs a uniform hypergraph with an edge")
    closed = {S | N for S, N in _links(H).items()}
    sets = [tuple(v - 1 for v in _bit_indices(S)) for S in closed]

    def palette(assignment) -> int:
        return max(len({assignment[v] for v in S}) for S in sets)

    return palette


def local_palette(H: Hypergraph, c: Coloring) -> int:
    """Largest closed-neighborhood palette forced by c.

    Graphs use closed vertex neighborhoods; r-uniform hypergraphs use
    the edge-minus-vertex neighborhoods.
    """
    return _local_palettes(H)(c.assignment)


def _local_optimum(H: Hypergraph, budget: Optional[SearchBudget] = None) -> tuple[int, tuple]:
    """The local chromatic number of H and the first canonical coloring
    that attains it, from one sweep over canonical colorings."""
    palette = _local_palettes(H)
    best = min(_canonical_colorings(H, H.n, budget), key=palette, default=None)
    if best is None:
        raise ValueError("H has no proper coloring")
    return palette(best), best


def local_chromatic_number(H: Hypergraph, budget: Optional[SearchBudget] = None) -> int:
    """Exact local chromatic number by sweep over canonical colorings."""
    return _local_optimum(H, budget)[0]


def kneser(F: Hypergraph, r: int) -> Hypergraph:
    """Kneser hypergraph: vertices are edges of F (colex order), edges are
    r-sets of pairwise disjoint F-edges."""
    if r < 2:
        raise ValueError("Kneser uniformity must be at least 2")
    fedges = kneser_vertex_labels(F)
    masks = [_mask(e) for e in fedges]
    m = len(fedges)
    edges = []
    for combo in itertools.combinations(range(m), r):
        union = 0
        total = 0
        for i in combo:
            union |= masks[i]
            total += bin(masks[i]).count("1")
        if bin(union).count("1") == total:  # pairwise disjoint
            edges.append(frozenset(i + 1 for i in combo))
    prov = ("kneser", F, r)
    if edges:
        return build_hypergraph(m, edges, provenance=prov)
    return Hypergraph(n=m, edges=(), uniformity=r, provenance=prov)


def colex_key(s: Iterable[int]) -> tuple:
    """Sort key realizing the colexicographic total order on finite sets."""
    return tuple(sorted(s, reverse=True))


def kneser_vertex_labels(F: Hypergraph) -> list[frozenset[int]]:
    """F-edges in the colex order used for Kneser vertex indexing."""
    return sorted(F.edges, key=colex_key)


def usual_kneser(n: int, k: int, r: int) -> Hypergraph:
    """KG^r(n,k) = kneser(K_n^k, r)."""
    return kneser(complete_hypergraph(n, k), r)


def automorphisms(H: Hypergraph) -> list[tuple[int, ...]]:
    """All edge-preserving vertex permutations, as tuples (image of 1..n)."""
    n = H.n
    eset = H.edge_set()
    degs = [H.degree(v) for v in H.vertices]
    out: list[tuple[int, ...]] = []
    img = [0] * (n + 1)
    used = [False] * (n + 1)

    edges_by_max = [[] for _ in range(n + 1)]
    for e in H.edges:
        edges_by_max[max(e)].append(e)

    def rec(v: int) -> None:
        if v > n:
            out.append(tuple(img[1:]))
            return
        for w in range(1, n + 1):
            if used[w] or degs[w - 1] != degs[v - 1]:
                continue
            img[v] = w
            used[w] = True
            ok = all(
                frozenset(img[u] for u in e) in eset for e in edges_by_max[v]
            )
            if ok:
                rec(v + 1)
            used[w] = False
            img[v] = 0

    rec(1)
    return out


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the line format: ``v <n>`` then ``e <v1> <v2> ...`` per edge."""
    n = None
    edges = []  # (line number, vertices) per 'e' line
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "v":
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate vertex count")
            try:
                (n,) = map(int, tok[1:])
            except ValueError:  # no count, extra tokens, or not an integer
                n = 0
            if n < 1:
                raise ValueError(f"line {lineno}: expected 'v <n>' with one integer n >= 1")
        elif tok[0] == "e":
            try:
                edges.append((lineno, [int(x) for x in tok[1:]]))
            except ValueError:
                raise ValueError(f"line {lineno}: edge vertices must be integers") from None
        else:
            raise ValueError(f"line {lineno}: unknown directive {tok[0]!r}")
    if n is None:
        raise ValueError("missing 'v <n>' line")
    for lineno, e in edges:  # checked here, as a 'v' line may follow them
        if not e:
            raise ValueError(f"line {lineno}: empty edge")
        if not all(1 <= v <= n for v in e):
            raise ValueError(f"line {lineno}: edge {sorted(set(e))} out of range 1..{n}")
    if edges:
        return build_hypergraph(n, [e for _, e in edges])
    return Hypergraph(n=n, edges=())


def format_hypergraph(H: Hypergraph) -> str:
    lines = [f"v {H.n}"]
    for e in H.edges:
        lines.append("e " + " ".join(str(v) for v in sorted(e)))
    return "\n".join(lines) + "\n"
