import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagem.errors import GraphFormatError
from pentagem.graph import (Graph, bits, build_graph, complement, complete_graph,
                            component_masks, connected_components, cycle_graph,
                            disjoint_union, empty_graph, induced_subgraph,
                            is_connected, join, mask_of, path_graph,
                            seeded_component_masks, _mirrored_from_below)
from pentagem.instances import gallery_g1, gallery_g2
from pentagem.solver import solve

from helpers import caterpillar, random_graph, reference_adjacency_fault


def test_build_cycle_degrees():
    g = cycle_graph(5)
    assert g.degree_sequence() == (2, 2, 2, 2, 2)
    assert g.m == 5


def test_build_singleton():
    g = build_graph(1, [])
    assert g.max_degree() == 0 and g.min_degree() == 0


def test_gallery_g1_from_edge_list():
    # the 15-vertex tightness graph, rebuilt from its raw edge list
    src = gallery_g1()
    g = build_graph(15, list(src.edges()))
    assert g == src
    assert g.max_degree() == 8


def test_build_rejects_bad_edges():
    with pytest.raises(GraphFormatError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphFormatError):
        build_graph(3, [(1, 1)])


@pytest.mark.parametrize("n, adj, message", [
    (3, [0, 0], "adjacency length 2 does not match n=3"),
    (3, [0, 0b010, 0], "loop at vertex 1"),
    (2, [0b100, 0], "adjacency of 0 mentions vertices >= 2"),
    (2, [0, -4], "adjacency of 1 mentions vertices >= 2"),
    # the first fault in vertex order, then neighbor order: a walk over the
    # neighbors above each vertex alone would name 3 and 2, or the loop
    (4, [0, 0, 0b1001, 0], "asymmetric adjacency between 0 and 2"),
    (3, [0, 0b001, 0b100], "asymmetric adjacency between 0 and 1"),
    # every neighbor above its vertex is mirrored; one below is not
    (3, [0b010, 0b001, 0b001], "asymmetric adjacency between 0 and 2"),
])
def test_graph_rejects_a_bad_adjacency_with_its_first_fault(n, adj, message):
    with pytest.raises(GraphFormatError) as info:
        Graph(n, adj)
    assert str(info.value) == message


@given(st.integers(0, 7), st.integers(0, 2**32))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_graph_checks_adjacency_like_a_walk_over_every_entry(n, seed):
    # a symmetric graph, then a few bits flipped, loops and high bits included
    rng = random.Random(seed)
    g = random_graph(n, rng.random(), rng.randrange(10**6))
    adj = list(g.adj)
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        if n:
            adj[rng.randrange(n)] ^= 1 << rng.randrange(n + 2)
    fault = reference_adjacency_fault(n, adj)
    # the check from below decides alone; the full walk only words a fault
    assert _mirrored_from_below(n, tuple(adj)) == (fault is None)
    if fault is None:
        assert Graph(n, adj).adj == tuple(adj)
    else:
        with pytest.raises(GraphFormatError) as info:
            Graph(n, adj)
        assert str(info.value) == fault


def test_duplicate_edges_collapse():
    g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_induced_clique_hereditary():
    sub, ids = induced_subgraph(complete_graph(5), [1, 2, 4])
    assert sub == complete_graph(3)
    assert ids == (1, 2, 4)


def test_induced_c5_gives_p4():
    sub, _ = induced_subgraph(cycle_graph(5), [0, 1, 2, 3])
    assert sub == path_graph(4)


def test_induced_c5_part_of_gallery_g2():
    g = gallery_g2(9)
    sub, _ = induced_subgraph(g, range(5, 10))
    assert sub == cycle_graph(5)


def test_join_gem_degree_sequence():
    gem = join(complete_graph(1), path_graph(4))
    assert sorted(gem.degree_sequence(), reverse=True) == [4, 3, 3, 2, 2]


def test_join_k3_with_three_edges():
    three_k2 = disjoint_union(disjoint_union(complete_graph(2), complete_graph(2)),
                              complete_graph(2))
    g = join(complete_graph(3), three_k2)
    assert g.n == 9
    assert [g.degree(v) for v in range(3)] == [8, 8, 8]


def test_join_with_empty_is_identity():
    g = cycle_graph(5)
    assert join(empty_graph(0), g) == g


def test_complement_of_complete_is_empty():
    assert complement(complete_graph(4)) == empty_graph(4)


def test_components():
    g = disjoint_union(cycle_graph(3), path_graph(2))
    assert connected_components(g) == [(0, 1, 2), (3, 4)]
    assert not is_connected(g)
    assert is_connected(cycle_graph(4))


@given(st.integers(0, 400), st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_constructed_graphs_are_symmetric_irreflexive(seed, n):
    g = random_graph(n, 0.4, seed)
    for v in range(g.n):
        assert not g.has_edge(v, v)
        for u in g.neighbors(v):
            assert g.has_edge(u, v)


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_induced_subgraph_composes(seed):
    g = random_graph(9, 0.5, seed)
    s1 = [0, 2, 3, 5, 6, 8]
    sub1, ids1 = induced_subgraph(g, s1)
    s2_local = [0, 1, 3, 4]
    sub2, ids2 = induced_subgraph(sub1, s2_local)
    direct, ids3 = induced_subgraph(g, [ids1[i] for i in s2_local])
    assert sub2 == direct
    assert tuple(ids1[i] for i in ids2) == ids3


@given(st.integers(0, 400), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_join_degree_law(seed, na, nb):
    a = random_graph(na, 0.5, seed)
    b = random_graph(nb, 0.5, seed + 1)
    g = join(a, b)
    assert g.n == na + nb
    for v in range(na):
        assert g.degree(v) == a.degree(v) + nb
    for v in range(nb):
        assert g.degree(na + v) == b.degree(v) + na


@given(st.integers(0, 10**6), st.integers(1, 16), st.floats(0.05, 0.6),
       st.integers(0, 2**16 - 1))
@settings(max_examples=300, deadline=None)
def test_seeded_split_matches_connected_components(seed, n, p, pick):
    # remove a random piece from each component; the piece's neighbors are
    # the seeds, and the split must equal a full component search
    g = random_graph(n, p, seed)
    for comp in component_masks(g.adj, g.full_mask()):
        piece = comp & pick
        rest = comp & ~piece
        seeds = 0
        for v in bits(piece):
            seeds |= g.adj[v]
        got = seeded_component_masks(g.adj, rest, seeds & rest)
        sub, ids = induced_subgraph(g, bits(rest))
        want = [mask_of(ids[i] for i in c) for c in connected_components(sub)]
        assert got == want


def test_seeded_split_of_a_path_around_a_middle_vertex():
    g = path_graph(9)
    rest = g.full_mask() & ~(1 << 4)
    assert seeded_component_masks(g.adj, rest, 1 << 3 | 1 << 5) == [0b1111, 0b111100000]
    assert seeded_component_masks(g.adj, g.full_mask() & ~1, 1 << 1) == [g.full_mask() & ~1]
    assert seeded_component_masks(g.adj, 0, 0) == []


def _star(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


_LEAVES_OF_0 = 0b1111111 << 6  # in caterpillar(6), spine vertex i's leaves are 6 + 7i..12 + 7i


@pytest.mark.parametrize("g, gone, piece", [
    # spine vertex 1 of a caterpillar, once spine vertex 0, its leaves and
    # 1's first leaf are gone: 1's 6 other leaves are isolated seeds and
    # spine vertex 2 is the live one
    (caterpillar(6), 1 | _LEAVES_OF_0, 1 << 1 | 1 << 13),
    (caterpillar(6), 0, 1 | 1 << 6),  # the spine's end: 6 leaves and spine vertex 1
    (_star(7), 0, 1),  # a star's centre: every seed is isolated
    # a middle spine vertex with all its leaves: two live seeds and 7 isolated ones
    (caterpillar(6), 0, 1 << 3),
    (caterpillar(6), 0, 1 << 3 | 1 << 4),  # two live seeds, 14 isolated
    (caterpillar(6), 0, 1 << 1 | 1 << 13),  # two live seeds, 6 isolated
    # the lowest seed (vertex 1) isolated, one live seed above it
    (build_graph(6, [(0, 1), (0, 2), (2, 3), (3, 4), (4, 5)]), 0, 1),
    # the lowest seed isolated, two live seeds above it
    (build_graph(6, [(0, 1), (0, 2), (0, 4), (2, 3), (4, 5)]), 0, 1),
], ids=["spine", "spine-end", "star", "mid-spine", "two-spine", "second-spine",
        "low-isolated", "low-isolated-two-live"])
def test_seeded_split_sets_isolated_seeds_aside(g, gone, piece):
    rest = g.full_mask() & ~gone & ~piece
    seeds = 0
    for v in bits(piece):
        seeds |= g.adj[v]
    seeds &= rest
    assert seeds & (seeds - 1)  # more than one seed, so the split is not trivial
    assert seeded_component_masks(g.adj, rest, seeds) == component_masks(g.adj, rest)


class _CountedRows(list):
    """An adjacency list that counts how often each row is read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = Counter()

    def __getitem__(self, v):
        self.reads[v] += 1
        return super().__getitem__(v)


def test_a_spine_peel_reads_only_its_isolated_seeds(monkeypatch):
    # each spine vertex of caterpillar(200) comes off with its 6 remaining
    # leaves and the next spine vertex as seeds: the split reads each leaf's
    # row once, and neither the live seed's row nor any other, so no search
    # round runs
    import pentagem.solver as solver

    calls = []

    def record(adj, mask, seeds):
        calls.append((mask, seeds))
        return seeded_component_masks(adj, mask, seeds)

    g = caterpillar(200)
    monkeypatch.setattr(solver, "seeded_component_masks", record)
    solve(g)
    peels = 0
    for mask, seeds in calls:
        live = [v for v in bits(seeds) if g.adj[v] & mask]
        if len(live) != 1 or seeds.bit_count() != 7:
            continue
        adj = _CountedRows(g.adj)
        got = seeded_component_masks(adj, mask, seeds)
        assert got == component_masks(g.adj, mask)
        assert adj.reads == Counter(v for v in bits(seeds) if v not in live)
        peels += 1
    assert peels == 198, peels


def _peel(g: Graph, comp: int, piece: int) -> tuple[int, int]:
    """``comp`` less ``piece``, and the piece's neighbors there as seeds."""
    rest = comp & ~piece
    seeds = 0
    for v in bits(piece):
        seeds |= g.adj[v]
    return rest, seeds & rest


def _live(adj, rest: int, seeds: int) -> int:
    return sum(1 for v in bits(seeds) if adj[v] & rest)


def test_seeded_split_equals_component_masks_on_random_peels():
    # 600 fixed draws: a graph on at most 40 vertices, and from each of its
    # components a piece of 1 to 4 vertices
    rng = random.Random(20200604)
    several_live = three_parts = 0
    for _ in range(600):
        n = rng.randint(1, 40)
        g = random_graph(n, rng.choice((0.04, 0.08, 0.15, 0.3)), rng.randrange(10**9))
        for comp in component_masks(g.adj, g.full_mask()):
            vs = list(bits(comp))
            rest, seeds = _peel(g, comp, mask_of(rng.sample(vs, min(len(vs), rng.randint(1, 4)))))
            want = component_masks(g.adj, rest)
            assert seeded_component_masks(g.adj, rest, seeds) == want
            several_live += _live(g.adj, rest, seeds) >= 2
            three_parts += len(want) >= 3 and _live(g.adj, rest, seeds) >= 3
    assert several_live >= 300 and three_parts >= 40, (several_live, three_parts)


def _spider(legs: int, length: int) -> Graph:
    """A centre 0 joined to one end of each of ``legs`` paths on ``length``
    vertices; leg i is 1 + length*i .. length*(i+1), its end next to 0 first."""
    edges = []
    for i in range(legs):
        first = 1 + length * i
        edges.append((0, first))
        edges += [(first + j, first + j + 1) for j in range(length - 1)]
    return build_graph(1 + legs * length, edges)


@pytest.mark.parametrize("g, piece, parts, live", [
    # a walk from vertex 19 runs out at vertex 0 before it reaches 21
    (path_graph(41), 1 << 20, 2, 2),
    # spine vertex 10 of a caterpillar: the walk from spine vertex 9 covers
    # the left half, then 7 isolated leaves, and 11 takes the right half
    (caterpillar(20), 1 << 10, 9, 2),
    (_spider(3, 12), 1, 3, 3),  # three legs, each a component
    (_spider(5, 4), 1, 5, 5),
    # the centre and the second vertex of leg 0: its first vertex is
    # isolated, and five live seeds remain
    (_spider(5, 4), 1 | 1 << 2, 6, 5),
    # two seeds in the first part, one each in two more
    (build_graph(12, [(0, 1), (0, 2), (0, 6), (0, 9), (1, 3), (2, 3), (3, 4), (4, 5),
                      (6, 7), (7, 8), (9, 10), (10, 11)]), 1, 3, 4),
    (path_graph(5), 0b1010, 3, 0),  # vertices 1 and 3: seeds 0, 2 and 4, all isolated
    (path_graph(9), 0b1010, 3, 1),  # 0 and 2 isolated, 4 takes the rest
], ids=["path", "caterpillar", "three-legs", "five-legs", "isolated-and-live-legs", "two-in-one",
        "isolated-on-a-path", "isolated-then-one-live"])
def test_seeded_split_restarts_after_each_component_it_walks(g, piece, parts, live):
    rest, seeds = _peel(g, g.full_mask(), piece)
    want = component_masks(g.adj, rest)
    assert (len(want), _live(g.adj, rest, seeds)) == (parts, live)
    assert seeded_component_masks(g.adj, rest, seeds) == want


def test_a_walk_that_reaches_every_live_seed_leaves_the_rest_unread():
    # vertex 0 is joined to 1 and 2, and 2 starts the path 2..40: the walk
    # from 1 reaches 2 in one level, so no row of the path past 2 is read
    g = build_graph(41, [(0, 1), (0, 2), (1, 2)] + [(v, v + 1) for v in range(2, 40)])
    rest, seeds = _peel(g, g.full_mask(), 1)
    adj = _CountedRows(g.adj)
    assert seeded_component_masks(adj, rest, seeds) == [rest]
    assert set(adj.reads) == {1, 2}
