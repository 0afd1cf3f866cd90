import math
import random

import pytest

from hyperchrom.hypergraph import (
    _edges_through,
    _links,
    _local_palettes,
    _neighbour_masks,
    _transversals,
    Coloring,
    Hypergraph,
    build_hypergraph,
    chromatic_number,
    clique_number,
    complete_hypergraph,
    format_hypergraph,
    independence_number,
    induced,
    is_complete_partite,
    is_proper,
    kneser,
    local_chromatic_number,
    local_palette,
    neighborhood,
    parse_hypergraph,
    PartiteFamily,
    usual_kneser,
)


def cycle(n):
    return build_hypergraph(n, [[i, i % n + 1] for i in range(1, n + 1)])


def test_build_normalizes_and_detects_uniformity():
    H = build_hypergraph(4, [[2, 1], [3, 4], [1, 2]])
    assert H.n == 4
    assert H.uniformity == 2
    assert len(H.edges) == 2  # duplicate edge collapsed


def test_complete_hypergraph_counts():
    H = complete_hypergraph(5, 2)
    assert len(H.edges) == 10
    assert complete_hypergraph(6, 3).uniformity == 3
    assert len(complete_hypergraph(6, 3).edges) == 20


def test_kneser_of_k52_is_petersen():
    P = kneser(complete_hypergraph(5, 2), 2)
    assert P.n == 10
    assert len(P.edges) == 15
    assert all(P.degree(v) == 3 for v in P.vertices)
    assert P.provenance[0] == "kneser"


def test_usual_kneser_r3():
    K = usual_kneser(7, 2, 3)
    assert K.n == 21
    assert K.uniformity == 3
    # triples of pairwise disjoint 2-subsets of [7]
    assert len(K.edges) == 105


def test_parse_format_roundtrip():
    H = kneser(complete_hypergraph(5, 2), 2)
    assert parse_hypergraph(format_hypergraph(H)).edges == H.edges


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_hypergraph("q 3\n")


def test_chromatic_small_graphs():
    K4 = kneser(complete_hypergraph(4, 1), 2)
    assert chromatic_number(K4).value == 4
    assert chromatic_number(cycle(5)).value == 3
    assert chromatic_number(cycle(6)).value == 2


def test_chromatic_petersen():
    P = kneser(complete_hypergraph(5, 2), 2)
    res = chromatic_number(P)
    assert res.value == 3
    assert res.exact
    assert is_proper(P, res.coloring)


def test_chromatic_hypergraph_two_colorable():
    # one 3-edge is 2-colorable
    H = Hypergraph(3, (frozenset({1, 2, 3}),), uniformity=3)
    assert chromatic_number(H).value == 2


def test_chromatic_singleton_edge_infinite():
    H = Hypergraph(2, (frozenset({1}),), uniformity=1)
    assert chromatic_number(H).value == math.inf


def test_is_proper():
    P = kneser(complete_hypergraph(5, 2), 2)
    assert not is_proper(P, Coloring((1,) * 10, palette_size=1))


def test_local_chromatic_oracles():
    K4 = kneser(complete_hypergraph(4, 1), 2)
    assert local_chromatic_number(K4) == 4
    assert local_chromatic_number(cycle(5)) == 3
    assert local_chromatic_number(cycle(6)) == 2


def test_local_palette_matches_definition_on_graph():
    C5 = cycle(5)
    c = Coloring((1, 2, 1, 2, 3), palette_size=3)
    assert is_proper(C5, c)
    # vertex 5 sees colors {3, 1, 2} in its closed neighborhood
    assert local_palette(C5, c) == 3


def test_neighborhood():
    H = Hypergraph(4, (frozenset({1, 2, 3}), frozenset({2, 3, 4})), uniformity=3)
    assert neighborhood(H, frozenset({2, 3})) == frozenset({1, 4})


def test_clique_independence():
    K4 = kneser(complete_hypergraph(4, 1), 2)
    P = kneser(complete_hypergraph(5, 2), 2)
    assert clique_number(K4) == 4
    assert clique_number(P) == 2
    assert independence_number(P) == 4
    assert independence_number(cycle(5)) == 2


def test_induced():
    P = kneser(complete_hypergraph(5, 2), 2)
    sub, relabel = induced(P, [1, 2, 3])
    assert sub.n == 3
    assert relabel[3] == 3


def test_is_complete_partite():
    K4 = kneser(complete_hypergraph(4, 1), 2)
    fam = PartiteFamily((frozenset({1, 2}), frozenset({3, 4})))
    assert is_complete_partite(K4, fam, 2)
    C4 = cycle(4)
    assert not is_complete_partite(
        C4, PartiteFamily((frozenset({1, 2}), frozenset({3, 4}))), 2
    )


def test_links_of_a_graph_are_its_neighbourhoods():
    G = cycle(5)
    links = _links(G)
    assert links == {1 << v: m for v, m in enumerate(_neighbour_masks(G)) if m}
    assert links[1 << 1] == 1 << 2 | 1 << 5


def test_links_and_partners_at_r3():
    H = build_hypergraph(4, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    links = _links(H)
    assert links[1 << 1 | 1 << 2] == 1 << 3 | 1 << 4
    assert links[1 << 2 | 1 << 3] == 1 << 1
    assert 1 << 2 | 1 << 3 | 1 << 4 not in links
    # 2 and 3 share {1, 2, 3}, but {2, 3, 4} is no edge
    assert _neighbour_masks(H) == [0, 0b11100, 0b00010, 0b00010, 0b00010]


def test_partners_are_zero_without_edges():
    assert _neighbour_masks(build_hypergraph(3, [])) == [0, 0, 0, 0]
    assert _neighbour_masks(usual_kneser(5, 2, 3)) == [0] * 11


def test_transversals():
    assert _transversals([0b110, 0b1000], 0) == [0]
    assert sorted(_transversals([0b110, 0b1000], 1)) == [0b10, 0b100, 0b1000]
    assert sorted(_transversals([0b110, 0, 0b1000], 2)) == [0b1010, 0b1100]
    assert _transversals([0b110], 2) == []


def _reference_local_palettes(H):
    """The former palette function: closed vertex neighbourhoods built
    from the edge list for a graph, X + N(X) from ``neighborhood`` else."""
    if H.uniformity == 2:
        closed = [{v} for v in H.vertices]
        for e in H.edges:
            for v in e:
                closed[v - 1] |= e
    else:
        closed = {X | neighborhood(H, X) for e in H.edges for X in (e - {v} for v in e)}
    sets = [tuple(v - 1 for v in S) for S in closed]

    def palette(assignment):
        return max((len({assignment[v] for v in S}) for S in sets), default=0)

    return palette


@pytest.mark.parametrize(
    "H",
    [
        kneser(complete_hypergraph(4, 1), 2),
        cycle(5),
        usual_kneser(5, 2, 2),
        complete_hypergraph(5, 3),
        usual_kneser(6, 2, 3),
    ],
    ids=["K4", "C5", "petersen", "K5^3", "KG3(6,2)"],
)
def test_local_palettes_match_reference(H):
    rng = random.Random(H.n)
    palette, reference = _local_palettes(H), _reference_local_palettes(H)
    for colors in (1, 2, 3, H.n):
        for _ in range(50):
            assignment = [rng.randint(1, colors) for _ in range(H.n)]
            assert palette(assignment) == reference(assignment)


@pytest.mark.parametrize(
    "H",
    [
        build_hypergraph(3, []),
        Hypergraph(3, (), uniformity=2),
        build_hypergraph(4, [(1, 2), (2, 3, 4)]),
    ],
    ids=["edgeless", "edgeless-r2", "mixed"],
)
def test_local_palette_needs_a_uniform_hypergraph_with_an_edge(H):
    with pytest.raises(ValueError, match="uniform hypergraph with an edge"):
        local_palette(H, Coloring((1,) * H.n, palette_size=1))


def test_edges_through_is_built_once_per_hypergraph():
    # an equal hypergraph reads the same cached table
    H = usual_kneser(6, 2, 2)
    through = _edges_through(H)
    assert through is _edges_through(usual_kneser(6, 2, 2))
    assert through == [
        [sum(1 << u for u in e) for e in H.edges if v in e] for v in range(H.n + 1)
    ]
