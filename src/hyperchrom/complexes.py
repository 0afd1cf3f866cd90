"""Simplicial complexes and posets carrying a cyclic group action.

Group elements of Z_p are residues 0..p-1 with 0 the identity; the
display convention writes residue j as w^j (and the identity as w^p,
matching the usual generator-power notation).

Complexes are stored by their maximal simplices, and membership of a
face is a subset test against that antichain; posets by their covers.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import itemgetter, or_
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from .altdefect import _signed_order, alt_of_vector
from .hypergraph import Hypergraph, _bit_indices, _links, _mask, _neighbour_masks, _transversals

__all__ = [
    "SimplicialGComplex",
    "GPoset",
    "sigma_simplex",
    "zp_join",
    "join",
    "barycentric_subdivision",
    "box_complex",
    "hom_poset",
    "beat_core",
    "order_complex",
    "q_poset",
    "sigma_complex",
    "orbit_decomposition",
    "complex_to_text",
    "poset_to_text",
]

Label = Hashable


@dataclass(frozen=True)
class SimplicialGComplex:
    """Finite simplicial complex with a Z_p action given by one generator.

    ``generator`` maps each vertex to its image under w; w^k acts by
    iterating.  ``provenance`` tags the construction for downstream
    index certificates.
    """

    vertices: tuple[Label, ...]
    maximal_simplices: tuple[frozenset, ...]
    p: int
    generator: dict = field(compare=False)
    provenance: Optional[tuple] = field(default=None, compare=False)

    def __post_init__(self):
        vset = set(self.vertices)
        if set(self.generator) != vset or set(self.generator.values()) != vset:
            raise ValueError("generator must permute the vertex set")
        for m in self.maximal_simplices:
            if not m <= vset:
                raise ValueError("maximal simplex outside vertex set")

    @cached_property
    def _perms(self) -> list[dict]:
        perms = [dict((v, v) for v in self.vertices)]
        for _ in range(1, self.p):
            prev = perms[-1]
            perms.append({v: self.generator[prev[v]] for v in self.vertices})
        return perms

    def act(self, g: int, v: Label) -> Label:
        return self._perms[g % self.p][v]

    def act_set(self, g: int, s: Iterable[Label]) -> frozenset:
        perm = self._perms[g % self.p]
        return frozenset(perm[v] for v in s)

    @cached_property
    def _holders(self) -> dict:
        """Maps each vertex to the mask of the maximal simplices holding it
        (bit t for ``maximal_simplices[t]``)."""
        holders = dict.fromkeys(self.vertices, 0)
        for t, m in enumerate(self.maximal_simplices):
            for v in m:
                holders[v] |= 1 << t
        return holders

    def is_simplex(self, s: Iterable[Label]) -> bool:
        """Some maximal simplex holds every vertex of s; the empty set is a
        simplex, and a vertex outside the complex is in none."""
        holders = self._holders
        common = -1  # every maximal simplex
        for v in s:
            common &= holders.get(v, 0)
            if not common:
                return False
        return True

    @property
    def dim(self) -> int:
        if not self.maximal_simplices:
            return -1
        return max(len(m) for m in self.maximal_simplices) - 1

    def simplices(self) -> Iterator[frozenset]:
        """All nonempty simplices (exponential; desk-scale complexes only)."""
        seen: set[frozenset] = set()
        for m in self.maximal_simplices:
            mv = sorted(m, key=repr)
            for k in range(1, len(mv) + 1):
                for sub in itertools.combinations(mv, k):
                    fs = frozenset(sub)
                    if fs not in seen:
                        seen.add(fs)
                        yield fs

    def closed_under_action(self) -> bool:
        return all(
            self.is_simplex(self.act_set(1, m)) for m in self.maximal_simplices
        )

    def is_free(self) -> bool:
        """No nonidentity power fixes a simplex setwise.

        A fixed simplex would contain a fixed vertex orbit, so it is
        enough to test whether any single orbit is a simplex.
        """
        for g in range(1, self.p):
            perm = self._perms[g]
            seen: set[Label] = set()
            for v in self.vertices:
                if v in seen:
                    continue
                orbit = {v}
                w = perm[v]
                while w != v:
                    orbit.add(w)
                    w = perm[w]
                seen |= orbit
                if self.is_simplex(orbit):
                    return False
        return True

    def __repr__(self) -> str:
        return (
            f"SimplicialGComplex(p={self.p}, |V|={len(self.vertices)}, "
            f"maximal={len(self.maximal_simplices)}, dim={self.dim})"
        )


@dataclass(frozen=True)
class GPoset:
    """Finite poset with a Z_p action by order automorphisms.

    The order is stored as ``covers[i]``, the indices above element i
    with nothing strictly between; it must be the transitive reduction,
    and ``above`` is derived from it.  Labels are kept for display and
    witnesses.
    """

    labels: tuple[Label, ...]
    covers: tuple[frozenset[int], ...]
    p: int
    generator: tuple[int, ...]
    provenance: Optional[tuple] = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def _perms(self) -> list[tuple[int, ...]]:
        n = len(self.labels)
        perms = [tuple(range(n))]
        for _ in range(1, self.p):
            prev = perms[-1]
            perms.append(tuple(self.generator[prev[i]] for i in range(n)))
        return perms

    def act(self, g: int, i: int) -> int:
        return self._perms[g % self.p][i]

    @cached_property
    def above(self) -> tuple[frozenset[int], ...]:
        """``above[i]``: the indices strictly above i, the transitive
        closure of ``covers``, each built in ascending order."""
        covers = self.covers
        above: dict[int, frozenset[int]] = {}

        def close(i: int) -> frozenset[int]:
            if i not in above:
                ups = set(covers[i]).union(*map(close, covers[i]))
                above[i] = frozenset(sorted(ups))
            return above[i]

        return tuple(close(i) for i in range(len(covers)))

    def lt(self, i: int, j: int) -> bool:
        return j in self.above[i]

    def is_free(self) -> bool:
        return all(
            all(self.act(g, i) != i for i in range(len(self.labels)))
            for g in range(1, self.p)
        )

    def action_preserves_order(self) -> bool:
        """Covers go to covers, so, by chains of covers, the order does too."""
        gen = self.generator
        return all(
            all(gen[j] in self.covers[gen[i]] for j in self.covers[i])
            for i in range(len(self.labels))
        )

    def height(self) -> int:
        """Number of elements in a longest chain."""
        memo: dict[int, int] = {}

        def h(i: int) -> int:
            if i not in memo:
                memo[i] = 1 + max((h(j) for j in self.covers[i]), default=0)
            return memo[i]

        return max((h(i) for i in range(len(self.labels))), default=0)

    def __repr__(self) -> str:
        return f"GPoset(p={self.p}, |P|={len(self.labels)})"


def _cyclic_pairs_generator(p: int, items: Sequence[Label]) -> dict:
    """Generator action on labels (eps, x): rotate the first coordinate."""
    return {(eps, x): ((eps + 1) % p, x) for eps in range(p) for x in items}


def sigma_simplex(r: int, t: int) -> SimplicialGComplex:
    """sigma^{r-1}_{t-1}: vertex set Z_r with all t-subsets maximal."""
    if not 1 <= t <= r:
        raise ValueError("need 1 <= t <= r")
    verts = tuple(range(r))
    maximal = tuple(frozenset(c) for c in itertools.combinations(verts, t))
    gen = {v: (v + 1) % r for v in verts}
    return SimplicialGComplex(verts, maximal, r, gen, provenance=("sigma", r, t))


def zp_join(p: int, n: int) -> SimplicialGComplex:
    """Z_p^{*n}: n-fold join of the p-point space; simplices are the
    partial sign assignments of [n]."""
    if n < 1:
        raise ValueError("need n >= 1")
    verts = tuple((eps, i) for eps in range(p) for i in range(1, n + 1))
    maximal = tuple(
        frozenset((f[i], i + 1) for i in range(n))
        for f in itertools.product(range(p), repeat=n)
    )
    gen = _cyclic_pairs_generator(p, range(1, n + 1))
    return SimplicialGComplex(verts, maximal, p, gen, provenance=("zp_join", p, n))


def join(K: SimplicialGComplex, L: SimplicialGComplex) -> SimplicialGComplex:
    """Join with disjointified vertex labels (0, v) and (1, w); diagonal action."""
    if K.p != L.p:
        raise ValueError("group order mismatch")
    verts = tuple((0, v) for v in K.vertices) + tuple((1, w) for w in L.vertices)
    kmax = K.maximal_simplices or (frozenset(),)
    lmax = L.maximal_simplices or (frozenset(),)
    maximal = tuple(
        frozenset((0, v) for v in a) | frozenset((1, w) for w in b)
        for a in kmax
        for b in lmax
    )
    gen = {(0, v): (0, K.generator[v]) for v in K.vertices}
    gen.update({(1, w): (1, L.generator[w]) for w in L.vertices})
    return SimplicialGComplex(verts, tuple(m for m in maximal if m), K.p, gen)


def barycentric_subdivision(K: SimplicialGComplex) -> SimplicialGComplex:
    """sd K: vertices are nonempty simplices, simplices are inclusion chains.

    Maximal chains are full flags of maximal simplices (one per vertex
    ordering of each maximal simplex).
    """
    verts = tuple(sorted(K.simplices(), key=lambda s: (len(s), sorted(map(repr, s)))))
    maximal: set[frozenset] = set()
    for m in K.maximal_simplices:
        for perm in itertools.permutations(sorted(m, key=repr)):
            flag = frozenset(frozenset(perm[: k + 1]) for k in range(len(perm)))
            maximal.add(flag)
    gen = {s: K.act_set(1, s) for s in verts}
    return SimplicialGComplex(verts, tuple(maximal), K.p, gen, provenance=("sd", K))


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


class _PartiteSearch:
    """Enumerates the complete r-uniform p-partite part families of H:
    p disjoint parts such that every r-set taking one vertex from each
    of r distinct parts is an edge.

    The search adds slots (eps, v), "v joins part eps", in the fixed
    order of ``slots`` (vertex-major), depth first.  Its state is
    bitmasks: bit v of ``masks[eps]`` for the parts.  Each part of a
    family is ``frozenset(_bit_indices(mask))`` (:meth:`_family`), built
    in ascending vertex order, so a family's repr is a function of its
    sets and not of the search's history.

    The recursion carries ``open_``: bit w of ``open_[i]`` is set iff w
    is unused and slot (i, w) is open, i.e. every r-set taking w and one
    vertex from each of r - 1 other nonempty parts is an edge.  One rule
    keeps it for every r (:meth:`_narrow`): when v joins part eps, the
    new such r-sets through w in part i are T + v + w, for T an
    (r-2)-transversal of the nonempty parts other than i and eps, so
    ``open_[i]`` is ANDed with ``links[T | v]`` (see
    :func:`hypergraph._links`) for each T.  At r = 2, T is only the
    empty set, and the step is one AND with v's neighbour mask.

    Both prunes rest on one fact: a closed slot stays closed as the
    family grows, and a branch only adds slots at or after its ``start``.
    - :meth:`families` cuts a node when some empty part has no open slot
      at or after ``start``: no family below it has every part nonempty.
    - :meth:`maximal_families` cuts a node when an earlier slot (eps, v),
      one the branch can no longer add, is open, and no open later slot
      can close it.  A later slot closes it only if it uses v, or puts
      into a part other than eps a vertex outside ``partners[v]`` (see
      :func:`hypergraph._neighbour_masks`): only such a vertex shares a
      non-edge r-set with v.  Every leaf below would keep (eps, v) open,
      so none is maximal.  A closer outside every partner mask may close
      any slot, so then no slot of the part is tested; on Kneser
      hypergraphs with r >= 3, where no vertex has a partner, that is
      every part with a closer.
    Only branches that yield nothing are cut, so what is yielded comes
    in the order of the unpruned search.  The state is shared, so an
    instance runs one enumeration at a time.
    """

    def __init__(self, H: Hypergraph, p: int, r: int):
        self.p = p
        self.r = r
        self.slots = [(eps, v) for v in H.vertices for eps in range(p)]
        self.masks = [0] * p
        self._frozen: dict[int, frozenset[int]] = {}
        # _spread[eps]: each (r-2)-set J of parts other than eps, a getter of
        # J's masks, and the parts whose open masks the links through J cut.
        # Empty below r = 3: r = 2 takes the neighbour-mask step, and at
        # r = 1 no slot closes another.
        self._spread = [
            [
                (J, itemgetter(*J), tuple(i for i in range(p) if i != eps and i not in J))
                for J in itertools.combinations([j for j in range(p) if j != eps], r - 2)
            ]
            for eps in range(p)
        ] if r > 2 else [[]] * p
        self._cuts: dict[tuple[int, ...], int] = {}
        self.links = _links(H)
        self.partners = _neighbour_masks(H)
        # the vertices that are some vertex's partner
        self.partnered = reduce(or_, self.partners)
        # the open slots of the empty family: at r = 1, the edges
        self.first = [_mask(H.vertices) if r > 1 else self.links.get(0, 0)] * p
        # later[start][eps]: the vertices v whose slot (eps, v) is at or
        # after index start
        self.later = [[0] * p]
        for eps, v in reversed(self.slots):
            row = list(self.later[-1])
            row[eps] |= 1 << v
            self.later.append(row)
        self.later.reverse()

    def _family(self, masks: Sequence[int]) -> tuple[frozenset[int], ...]:
        """The family with these part masks; each part's frozenset is
        built once per mask, in ascending vertex order."""
        frozen = self._frozen
        out = []
        for m in masks:
            part = frozen.get(m)
            if part is None:
                part = frozen[m] = frozenset(_bit_indices(m))
            out.append(part)
        return tuple(out)

    def _narrow(self, open_: list[int], eps: int, v: int) -> list[int]:
        """``open_`` once v, already in ``masks[eps]``, has joined part eps.
        The AND of ``links[T | v]`` over the transversals T of a set J of
        parts depends only on v and J's masks, and is cached by them."""
        bit = 1 << v
        if self.r == 2:  # T is only the empty set
            cut = self.partners[v]
            return [o & ~bit if i == eps else o & cut for i, o in enumerate(open_)]
        out = [o & ~bit for o in open_]
        masks, cuts, links = self.masks, self._cuts, self.links
        for J, masks_of, targets in self._spread[eps]:
            key = (bit, masks_of(masks))
            cut = cuts.get(key)
            if cut is None:
                cut = -1
                for t in _transversals([masks[j] for j in J], len(J)):
                    cut &= links.get(t | bit, 0)
                cuts[key] = cut
            for i in targets:
                out[i] &= cut
        return out

    def families(self) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        """Every family with all parts nonempty, exactly once, in the
        depth-first order of the slots, as its part masks and its
        ``open_`` masks."""
        slots, later, masks, narrow = self.slots, self.later, self.masks, self._narrow

        def rec(start: int, open_: list[int]) -> Iterator[tuple[tuple[int, ...], list[int]]]:
            if all(masks):
                yield tuple(masks), open_
            elif not all(m or o & l for m, o, l in zip(masks, open_, later[start])):
                return
            for idx in range(start, len(slots)):
                eps, v = slots[idx]
                if open_[eps] >> v & 1:
                    masks[eps] |= 1 << v
                    yield from rec(idx + 1, narrow(open_, eps, v))
                    masks[eps] ^= 1 << v

        yield from rec(0, self.first)

    def maximal_families(self) -> Iterator[tuple[frozenset[int], ...]]:
        """The families that no slot extends, in the depth-first order of
        the slots."""
        p, slots, later, masks, narrow = self.p, self.slots, self.later, self.masks, self._narrow
        partners, partnered = self.partners, self.partnered

        def stuck(open_: list[int], lat: list[int]) -> bool:
            """Some earlier open slot stays open below this node."""
            for eps in range(p):
                early = open_[eps] & ~lat[eps]
                if not early:
                    continue
                closers = 0
                for i in range(p):
                    if i != eps:
                        closers |= open_[i] & lat[i]
                if not closers:
                    return True
                if closers & ~partnered:
                    continue
                for v in _bit_indices(early):
                    if not closers & ~partners[v]:
                        return True
            return False

        def rec(start: int, open_: list[int]) -> Iterator[tuple[frozenset[int], ...]]:
            """Below a node that is not stuck."""
            if not any(o & l for o, l in zip(open_, later[start])):
                # and, as the node is not stuck, no earlier slot is open
                yield self._family(masks)
                return
            for idx in range(start, len(slots)):
                eps, v = slots[idx]
                if open_[eps] >> v & 1:
                    masks[eps] |= 1 << v
                    child = narrow(open_, eps, v)
                    if not stuck(child, later[idx + 1]):
                        yield from rec(idx + 1, child)
                    masks[eps] ^= 1 << v

        yield from rec(0, self.first)  # no slot is earlier than the first


def box_complex(H: Hypergraph, p: int) -> SimplicialGComplex:
    """Z_p-box-complex B_0(H, Z_p) on vertex set Z_p x V(H)."""
    r = H.uniformity
    if r is None:
        raise ValueError("box complex requires a uniform hypergraph")
    if not _is_prime(p):
        raise ValueError("p must be prime")
    if p < r:
        raise ValueError("need p >= r")
    verts = tuple((eps, v) for eps in range(p) for v in H.vertices)

    maximal = [
        frozenset((eps, v) for eps in range(p) for v in fam[eps])
        for fam in _PartiteSearch(H, p, r).maximal_families()
    ]
    gen = _cyclic_pairs_generator(p, H.vertices)
    return SimplicialGComplex(
        verts, tuple(maximal), p, gen, provenance=("box", H, p)
    )


def hom_poset(H: Hypergraph, r: int, p: int) -> GPoset:
    """Z_p-hom-complex Hom(K^r_p, H): ordered p-tuples of nonempty
    pairwise disjoint parts forming complete r-uniform p-partite
    subhypergraphs, ordered by componentwise inclusion, rotated by Z_p.

    The elements are the families of :meth:`_PartiteSearch.families`,
    sorted by their sorted parts.  Each label is a tuple of frozensets
    built in ascending vertex order, so its repr is a function of its
    sets.  A family above another contains that family with one vertex
    added to one part, itself an element, so the covers of a family are
    the families its open slots give; they are looked up by part masks,
    like the generator's images.  H must be r-uniform or edgeless; mixed
    edge sizes raise ``ValueError``.
    """
    if not _is_prime(p):
        raise ValueError("p must be prime")
    if H.uniformity != r and (H.uniformity is not None or H.edges):
        raise ValueError("H is not r-uniform")
    search = _PartiteSearch(H, p, r)
    found = sorted(
        ((search._family(masks), masks, open_) for masks, open_ in search.families()),
        key=lambda item: tuple(sorted(part) for part in item[0]),
    )
    index = {masks: i for i, (_, masks, _) in enumerate(found)}

    def ups(masks: tuple[int, ...], open_: list[int]) -> Iterator[int]:
        for eps, slots in enumerate(open_):
            for v in _bit_indices(slots):
                yield index[(*masks[:eps], masks[eps] | 1 << v, *masks[eps + 1 :])]

    covers = tuple(frozenset(sorted(ups(masks, open_))) for _, masks, open_ in found)
    gen = tuple(index[masks[1:] + masks[:1]] for _, masks, _ in found)
    return GPoset(
        tuple(fam for fam, _, _ in found), covers, p, gen, provenance=("hom", H, r, p)
    )


def beat_core(P: GPoset) -> tuple[GPoset, tuple[int, ...]]:
    """The invariant core C of P left by removing beat points one Z_p-orbit
    at a time, and an equivariant order-preserving retraction r: P -> C.

    A beat point (Stong, Trans. AMS 1966) has exactly one upper cover or
    exactly one lower cover y; sending it to y and fixing everything else
    preserves the order.  The group acts by order automorphisms, so an
    orbit is an antichain: g^k.x is a beat point with cover g^k.y, the
    orbit never contains y, and removing the whole orbit with
    r(g^k.x) = g^k.y keeps r equivariant.  The worklist is taken in
    ascending index order, so the result is deterministic.  When z is
    removed, each lower cover u of z gains each upper cover w of z unless
    some remaining upper cover of u already lies below w.

    C is the induced subposet on the remaining elements in ascending index
    order (P itself when nothing is removed), covered as the update leaves
    it; ``r[x]`` is the index in C of the element x retracts to, composed
    in reverse order of removal.
    """
    n = len(P)
    above = P.above
    up = [set(ups) for ups in P.covers]
    down: list[set[int]] = [set() for _ in range(n)]
    for x, ups in enumerate(up):
        for y in ups:
            down[y].add(x)
    target: dict[int, int] = {}  # removed element -> its cover, in removal order
    work = list(range(n))
    queued = [True] * n

    def push(x: int) -> None:
        if not queued[x]:
            queued[x] = True
            heapq.heappush(work, x)

    def remove(z: int) -> None:
        ups, downs = up[z], down[z]
        for u in downs:
            up[u].discard(z)
        for w in ups:
            down[w].discard(z)
        for u in downs:
            for w in ups:
                if not any(w in above[v] for v in up[u]):
                    up[u].add(w)
                    down[w].add(u)
        for v in itertools.chain(downs, ups):
            push(v)

    while work:
        x = heapq.heappop(work)
        queued[x] = False
        if x in target:
            continue
        if len(up[x]) == 1:
            (y,) = up[x]
        elif len(down[x]) == 1:
            (y,) = down[x]
        else:
            continue
        for k in range(P.p):
            z = P.act(k, x)
            if z not in target:
                target[z] = P.act(k, y)
                remove(z)

    if not target:
        return P, tuple(range(n))
    core = [x for x in range(n) if x not in target]
    index = {x: i for i, x in enumerate(core)}
    for z in reversed(target):
        index[z] = index[target[z]]
    C = GPoset(
        tuple(P.labels[x] for x in core),
        tuple(frozenset(sorted(index[y] for y in up[x])) for x in core),
        P.p,
        tuple(index[P.generator[x]] for x in core),
        provenance=("beat_core", P),
    )
    return C, tuple(index[x] for x in range(n))


def order_complex(P: GPoset) -> SimplicialGComplex:
    """Delta P: vertices are poset elements, simplices are chains."""
    n = len(P)
    children = [sorted(P.covers[i]) for i in range(n)]
    covered = set().union(*P.covers)
    # an element above some element covers some element, so the minimal
    # elements are those that cover nothing
    minimal = [i for i in range(n) if i not in covered]

    maximal: list[frozenset[int]] = []

    def rec(chain: list[int]) -> None:
        extensions = children[chain[-1]]
        if not extensions:
            maximal.append(frozenset(chain))
            return
        for j in extensions:
            rec(chain + [j])

    for i in minimal:
        rec([i])

    verts = tuple(range(n))
    gen = {i: P.act(1, i) for i in range(n)}
    return SimplicialGComplex(
        verts, tuple(maximal), P.p, gen, provenance=("order_complex", P)
    )


def q_poset(n: int, p: int) -> GPoset:
    """Q_{n,p}: ground set Z_p x [n+1], (eps,i) < (eps',j) iff i < j."""
    if n < 0 or p < 2:
        raise ValueError("need n >= 0 and p >= 2")
    labels = tuple((eps, j) for j in range(1, n + 2) for eps in range(p))
    idx = {lab: i for i, lab in enumerate(labels)}
    # (eps, i) is covered by every element one level up
    covers = tuple(frozenset(idx[e, i + 1] for e in range(p) if i <= n) for _, i in labels)
    gen = tuple(idx[((lab[0] + 1) % p, lab[1])] for lab in labels)
    return GPoset(labels, covers, p, gen, provenance=("q_poset", n, p))


def signed_vector_poset(n: int, p: int, min_alt: int = 1) -> GPoset:
    """Poset of nonzero signed vectors with alt >= min_alt, ordered by
    classwise inclusion, with the rotation action, read from the cached
    signed-order table.  Alt never drops on a superset, so the kept
    vectors form an up-set and keep all their supersets; the covers of
    a vector are its supersets one support size up."""
    order = _signed_order(n, p)
    keep = [v for v, X in enumerate(order.vectors) if alt_of_vector(X) >= min_alt]
    idx = {v: i for i, v in enumerate(keep)}
    size = [len(X.support()) for X in order.vectors]
    covers = tuple(
        frozenset(idx[w] for w in order.sup[v] if size[w] == size[v] + 1) for v in keep
    )
    gen = tuple(idx[order.rot[v]] for v in keep)
    labels = tuple(order.vectors[v] for v in keep)
    return GPoset(labels, covers, p, gen, provenance=("signed_poset", n, p, min_alt))


def sigma_complex(n: int, p: int, alpha: int) -> SimplicialGComplex:
    """Sigma_p(n, alpha): order complex of the signed vectors with
    alt > alpha, carrying the rotation action."""
    if not 0 <= alpha <= n:
        raise ValueError("need 0 <= alpha <= n")
    if not _is_prime(p):
        raise ValueError("p must be prime")
    P = signed_vector_poset(n, p, min_alt=alpha + 1)
    K = order_complex(P)
    # relabel order-complex indices back to the vectors themselves
    relab = {i: P.labels[i] for i in K.vertices}
    verts = tuple(relab[i] for i in K.vertices)
    maximal = tuple(frozenset(relab[i] for i in m) for m in K.maximal_simplices)
    gen = {relab[i]: relab[K.generator[i]] for i in K.vertices}
    return SimplicialGComplex(
        verts, maximal, p, gen, provenance=("sigma_complex", n, p, alpha)
    )


def orbit_decomposition(X) -> tuple[list[tuple], bool]:
    """Vertex/element orbits with lexicographically least representatives
    first, plus the freeness flag."""
    if isinstance(X, SimplicialGComplex):
        items = list(X.vertices)
        act = X.act
        free = X.is_free()
    elif isinstance(X, GPoset):
        items = list(range(len(X)))
        act = X.act
        free = X.is_free()
    else:
        raise TypeError("expected a SimplicialGComplex or GPoset")
    seen = set()
    orbits = []
    for v in sorted(items, key=repr):
        if v in seen:
            continue
        orbit = sorted({act(g, v) for g in range(X.p)}, key=repr)
        orbits.append(tuple(orbit))
        seen.update(orbit)
    return orbits, free


def complex_to_text(K: SimplicialGComplex) -> str:
    """Line format: vertex table, maximal simplices, generator table."""
    idx = {v: i for i, v in enumerate(K.vertices)}
    lines = [f"p {K.p}", f"vertices {len(K.vertices)}"]
    for i, v in enumerate(K.vertices):
        lines.append(f"vertex {i} {v!r}")
    for m in sorted(K.maximal_simplices, key=lambda s: sorted(idx[v] for v in s)):
        lines.append("simplex " + " ".join(str(i) for i in sorted(idx[v] for v in m)))
    lines.append(
        "action " + " ".join(str(idx[K.generator[v]]) for v in K.vertices)
    )
    return "\n".join(lines) + "\n"


def poset_to_text(P: GPoset) -> str:
    """Line format: element table, covering pairs, generator table."""
    lines = [f"p {P.p}", f"elements {len(P)}"]
    for i, lab in enumerate(P.labels):
        lines.append(f"element {i} {lab!r}")
    for i in range(len(P)):
        for j in sorted(P.covers[i]):
            lines.append(f"cover {i} {j}")
    lines.append("action " + " ".join(str(P.generator[i]) for i in range(len(P))))
    return "\n".join(lines) + "\n"
