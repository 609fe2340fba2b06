import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pentagem import coloring, reductions, solver
from pentagem.coloring import Coloring, verify_coloring
from pentagem.errors import InternalInconsistencyError, PentagemError, PreconditionError
from pentagem.graph import (Graph, bits, build_graph, complete_graph, component_masks,
                            connected_components, cycle_graph, disjoint_union,
                            induced_subgraph, is_connected, join, mask_of, path_graph)
from pentagem.graphio import parse_graph
from pentagem.trace import dumps_trace, loads_trace
from pentagem.instances import GenSpec, gallery_g2, gen_class_instance
from pentagem.patterns import (_maximal_cliques, clique_number, find_induced, has_clique,
                               maximum_independent_set)
from pentagem.reductions import (_brooks_by_degree, _catalog_hubs, _delta_and_low,
                                 _hitting_component, bacso_tuza_bound,
                                 brooks_color, check_copycat, copycat_extend,
                                 extend_list_coloring, find_copycat,
                                 find_d1_catalog, find_low_degree, hitting_mis)

from helpers import (_reference_triangles, benchmark_inputs, brute_cliques,
                     brute_d1_catalog_present, brute_least_maximum_independent_set,
                     caterpillar, catalog_shapes, k9_with_ears, random_cograph, random_graph, reference_brooks_by_degree,
                     reference_brooks_mask, reference_extend_list_coloring,
                     reference_find_d1_catalog, reference_hitting_mis,
                     reference_is_k3_join_3k2, reference_is_k4_join_two_nonedges,
                     reference_maximal_cliques)


def brooks_mask(adj, mask: int) -> tuple[dict[int, int], int]:
    """The Brooks coloring of the subgraph ``adj`` induces on ``mask``, as a
    ``brooks`` line's apply colors it, and that subgraph's maximum degree."""
    delta, low = _delta_and_low(adj, mask)
    colors: dict[int, int] = {}
    _brooks_by_degree(adj, mask, delta, low, colors)
    return colors, delta


def is_catalog_shape(g, vs) -> bool:
    """Do ``vs`` induce one of the two catalog shapes?"""
    return _catalog_hubs(g, vs) > 0


def three_k2():
    return disjoint_union(disjoint_union(complete_graph(2), complete_graph(2)),
                          complete_graph(2))


def c4():
    return cycle_graph(4)


# -- low degree ----------------------------------------------------------------

def test_low_degree_k2():
    assert find_low_degree(complete_graph(2), 8) == 0


def test_low_degree_8_regular_none():
    g = join(complete_graph(1), complete_graph(8))  # K9 is 8-regular
    assert find_low_degree(g, 8) is None


def test_low_degree_gallery_g2_9():
    # the C5-side vertices have degree 7 = (t-2), so the rule fires
    g = gallery_g2(9)
    v = find_low_degree(g, 8)
    assert v is not None and g.degree(v) == 7


# -- copycat --------------------------------------------------------------------

def test_copycat_on_g2_expansion():
    sizes = {"Q1": 1, "Q2": 1, "Q3": 1, "Q4": 1, "Q5": 1, "Q6": 2}
    g, bags = gen_class_instance(GenSpec("G2", sizes))
    got = find_copycat(g)
    assert got is not None
    a, b = got
    # (Q2, Q6) and (Q5, Q6) both qualify; the detector must return one of them
    assert {frozenset(a), frozenset(b)} in (
        {frozenset(bags["Q2"]), frozenset(bags["Q6"])},
        {frozenset(bags["Q5"]), frozenset(bags["Q6"])})
    am, bm = set(a), set(b)
    na = {u for v in am for u in g.neighbors(v)} - am
    nb = {u for v in bm for u in g.neighbors(v)} - bm
    assert na <= nb and len(a) <= len(b)


def test_copycat_none_on_c5():
    assert find_copycat(cycle_graph(5)) is None


def test_copycat_twin_pairs():
    # two nonadjacent true-twin pairs with identical outside neighborhoods
    g = build_graph(6, [(0, 1), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4),
                        (0, 5), (1, 5), (2, 5), (3, 5)])
    got = find_copycat(g)
    assert got is not None
    a, b = got
    assert {frozenset(a), frozenset(b)} == {frozenset({0, 1}), frozenset({2, 3})}


def test_copycat_extend_singleton():
    g = build_graph(3, [(1, 2)])
    out = copycat_extend(g, (0,), (1,), {1: 3, 2: 1})
    assert out[0] == 3


def test_copycat_extend_picks_smallest():
    # donor clique colored {1,5,7}: the two smallest go to the removed side
    g = build_graph(6, [(0, 1), (2, 3), (2, 4), (3, 4),
                        (0, 5), (1, 5), (2, 5), (3, 5), (4, 5)])
    partial = {2: 1, 3: 5, 4: 7, 5: 2}
    out = copycat_extend(g, (0, 1), (2, 3, 4), partial)
    assert {out[0], out[1]} == {1, 5}
    assert verify_coloring(g, Coloring(out, 8))


def test_copycat_extend_rejects_adjacent_sides():
    g = complete_graph(4)
    with pytest.raises(PreconditionError):
        copycat_extend(g, (0,), (1,), {1: 1, 2: 2, 3: 3})


def test_copycat_extend_rejects_overlapping_sides():
    # a vertex is its own clique and anticomplete to itself, so only the
    # disjointness check stops it from copying its own color
    g = build_graph(3, [(0, 1), (0, 2)])
    with pytest.raises(PreconditionError, match="disjoint"):
        copycat_extend(g, (0,), (0,), {0: 1, 1: 2, 2: 3})


@pytest.mark.parametrize("edges, a, b, message", [
    ([(0, 1)], (0, 1), (2,), "copycat extension needs |A| <= |B|"),
    ([], (0,), (1, 2), "copycat sides must be cliques"),
    ([(0, 2)], (0,), (1,), "N(A) must be complete to B"),  # 2 sees A but not B
])
def test_check_copycat_words_each_failed_precondition(edges, a, b, message):
    with pytest.raises(PreconditionError) as err:
        check_copycat(build_graph(3, edges), a, b)
    assert type(err.value) is PreconditionError and str(err.value) == message


# -- d1 catalog -------------------------------------------------------------------

def test_catalog_whole_k3_3k2():
    g = join(complete_graph(3), three_k2())
    assert find_d1_catalog(g) == tuple(range(9))
    assert is_catalog_shape(g, tuple(range(9)))


def test_catalog_whole_k4_c4():
    g = join(complete_graph(4), c4())
    assert find_d1_catalog(g) == tuple(range(8))
    assert is_catalog_shape(g, tuple(range(8)))


def test_catalog_none_on_c5():
    assert find_d1_catalog(cycle_graph(5)) is None


def test_catalog_takes_the_first_six_of_a_wide_common_part():
    # the anchor 0,1,2 sees 3..9, which induce the path 3-4-5 and the edges
    # 6-7 and 8-9: two sixes fit, and the one with the earlier edge 3-4
    # wins; vertex 4 sees two of the seven, all that the slack allows
    inner = [(3, 4), (4, 5), (6, 7), (8, 9)]
    g = build_graph(10, [(0, 1), (0, 2), (1, 2)]
                    + [(h, x) for h in range(3) for x in range(3, 10)] + inner)
    assert find_d1_catalog(g) == (0, 1, 2, 3, 4, 6, 7, 8, 9) == reference_find_d1_catalog(g)


def test_catalog_takes_a_nine_before_an_earlier_eight():
    # K4 v C4 on 0..7 anchors first, but every anchor is tried for the
    # 9-vertex shape before any is tried for the 8-vertex one
    g = disjoint_union(join(complete_graph(4), c4()), join(complete_graph(3), three_k2()))
    assert find_d1_catalog(g) == tuple(range(8, 17)) == reference_find_d1_catalog(g)


def test_catalog_finds_an_interleaved_matching():
    # the matching 3-6, 4-7, 5-8: each later edge starts between the ends
    # of the one before it
    g = build_graph(9, [(0, 1), (0, 2), (1, 2), (3, 6), (4, 7), (5, 8)]
                    + [(h, x) for h in range(3) for x in range(3, 9)])
    assert find_d1_catalog(g) == tuple(range(9)) == reference_find_d1_catalog(g)


@pytest.mark.parametrize("bad", [99, -1])
def test_catalog_shape_tests_reject_an_id_outside_the_graph(bad):
    g = complete_graph(9)
    assert not is_catalog_shape(g, (bad, *range(1, 9)))
    assert not is_catalog_shape(g, (bad, *range(1, 8)))
    with pytest.raises(PreconditionError, match="not one of the catalog shapes"):
        extend_list_coloring(g, {v: mask_of(range(1, 9)) for v in (bad, *range(1, 9))})


@pytest.mark.parametrize("seed", range(30))
def test_catalog_matches_brute_force(seed):
    g = random_graph(random.Random(seed).randint(8, 12), 0.75, seed * 13 + 5)
    found = find_d1_catalog(g)
    assert (found is not None) == brute_d1_catalog_present(g)
    if found is not None:
        assert reference_is_k3_join_3k2(g, found) or reference_is_k4_join_two_nonedges(g, found)


@given(st.integers(0, 10**6), st.sampled_from([(3, 6), (4, 4)]), st.integers(0, 2),
       st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_catalog_shape_tests_match_the_reference(seed, shape, flips, cuts):
    # a hub clique joined to a perfect matching, then up to two pairs of the
    # matching side toggled and up to two edges cut anywhere
    hubs, rest = shape
    rng = random.Random(seed)
    perm = rng.sample(range(rest), rest)
    inner = {(min(perm[i], perm[i + 1]), max(perm[i], perm[i + 1]))
             for i in range(0, rest, 2)}
    inner ^= set(rng.sample(list(combinations(range(rest), 2)), flips))
    edges = list(join(complete_graph(hubs), build_graph(rest, inner)).edges())
    for _ in range(cuts):
        edges.remove(rng.choice(edges))
    g = build_graph(hubs + rest, edges)
    vs = tuple(rng.sample(range(g.n), g.n))
    for vs in (vs, vs[:-1] + vs[:1]):
        assert is_catalog_shape(g, vs) == (reference_is_k3_join_3k2(g, vs)
                                           or reference_is_k4_join_two_nonedges(g, vs))


# -- list extension ----------------------------------------------------------------

def test_list_extension_rejects_non_catalog():
    with pytest.raises(PreconditionError):
        extend_list_coloring(complete_graph(2), {0: mask_of({1}), 1: mask_of({1, 2})})


def test_list_extension_k3_3k2_minimum_lists():
    h = join(complete_graph(3), three_k2())
    # minimum sizes: 7 for the hub triangle (degree 8), 3 for matching ends
    lists = {v: set(range(1, 8)) if v < 3 else {1, 2, 3} for v in range(9)}
    got = extend_list_coloring(h, {v: mask_of(l) for v, l in lists.items()})
    assert all(got[v] in lists[v] for v in range(9))
    assert verify_coloring(h, Coloring(got, 8))


def test_list_extension_k4_c4_minimum_lists():
    h = join(complete_graph(4), c4())
    lists = {v: set(range(1, 7)) if v < 4 else {1, 2, 3, 4, 5} for v in range(8)}
    got = extend_list_coloring(h, {v: mask_of(l) for v, l in lists.items()})
    assert all(got[v] in lists[v] for v in range(8))
    assert verify_coloring(h, Coloring(got, 8))


def test_list_extension_random_minimum_lists():
    rng = random.Random(99)
    h1 = join(complete_graph(3), three_k2())
    h2 = join(complete_graph(4), c4())
    for h in (h1, h2):
        for _ in range(200):
            lists = {v: frozenset(rng.sample(range(1, 9), h.degree(v) - 1))
                     for v in range(h.n)}
            got = extend_list_coloring(h, {v: mask_of(l) for v, l in lists.items()})
            assert all(got[v] in lists[v] for v in range(h.n))
            assert verify_coloring(h, Coloring(got, 8))


def test_catalog_extension_search_stays_small_on_core9(monkeypatch):
    # A seed-7 core9 pass of solve plus replay makes 336 catalog
    # extensions.  Each search reads its uncolored set through bits once,
    # then a vertex's uncolored neighbors once per color it tries there,
    # so the other reads bound the nodes expanded.  A node cut by the failure memo reads nothing,
    # but the memo fills only at a dead end, whose first key comes from
    # _state, and on these lists the clique Hall cuts leave none.  Without
    # them the search expanded 4,580 nodes and cut 1,032 more; with them
    # it expands 2,888 and tries 3,064 colors.
    counts = Counter()
    real_bits, real_state, real_search = coloring.bits, coloring._state, reductions.list_color

    def counted_bits(mask):
        counts["reads"] += counts["open"]
        return real_bits(mask)

    def counted_state(*args):
        counts["dead ends"] += 1
        return real_state(*args)

    def search(adj, mask, free, fixed, cliques=()):
        counts["searches"] += 1
        counts["setup"] += 1 + len(fixed)
        counts["open"] = 1
        try:
            return real_search(adj, mask, free, fixed, cliques)
        finally:
            counts["open"] = 0

    monkeypatch.setattr(coloring, "bits", counted_bits)
    monkeypatch.setattr(coloring, "_state", counted_state)
    monkeypatch.setattr(reductions, "list_color", search)
    for inp in benchmark_inputs("core9", 7):
        g = parse_graph(inp.g6, "graph6")
        colors, trace = solver.solve(g)
        assert solver.replay_trace(g, loads_trace(dumps_trace(trace))).colors == colors.colors
    assert counts["searches"] == 336 and counts["dead ends"] == 0
    assert counts["reads"] - counts["setup"] <= 3300, counts


# -- pinned outputs of the catalog rule ----------------------------------------------
# sha256 digests recorded before detection and list extension moved to
# bitmasks; the rewrite must keep every return value, byte for byte.

LIST_EXTENSION_SHA256 = "1adcaaf0b2b9c6a9214eeea5b76d704a73654d88e4ae521272ed9625e963cfe1"
CATALOG_DETECTION_SHA256 = "93590e81d254a79d09a0505c6c85a7ff632e76490bfee16884c5387755bc6883"


def test_list_extension_assignments_are_pinned():
    # even rounds draw minimum-size lists, odd rounds sizes up to 8
    rng = random.Random(5151)
    digest = hashlib.sha256()
    for h in catalog_shapes():
        for i in range(120):
            lists = {}
            for v in range(h.n):
                size = h.degree(v) - 1 if i % 2 == 0 else rng.randint(h.degree(v) - 1, 8)
                lists[v] = frozenset(rng.sample(range(1, 9), size))
            got = extend_list_coloring(h, {v: mask_of(l) for v, l in lists.items()})
            digest.update(repr(list(got.items())).encode())
    assert digest.hexdigest() == LIST_EXTENSION_SHA256


CATALOG_SHAPES = catalog_shapes()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_list_extension_matches_the_reference_search(data):
    # The first assignment and its order, against the search without the
    # in-place free masks and the failure memo.  Every list is drawn from
    # one palette of 6 to 8 colors out of 0..11, which the hubs' lists
    # nearly fill; a short list is topped up from the palette's front.
    # Overlapping lists like these make the search backtrack, as the lists
    # solve builds do.
    h = data.draw(st.sampled_from(CATALOG_SHAPES))
    top = h.max_degree() - 1
    palette = data.draw(st.permutations(range(12)))[:top + data.draw(st.integers(0, 8 - top))]
    lists = {}
    for v in range(h.n):
        keep = data.draw(st.integers(0, (1 << len(palette)) - 1))
        kept = [c for i, c in enumerate(palette) if keep >> i & 1]
        kept += [c for c in palette if c not in kept][:h.degree(v) - 1 - len(kept)]
        lists[v] = frozenset(kept)
    got = extend_list_coloring(h, {v: mask_of(l) for v, l in lists.items()})
    assert list(got.items()) == list(reference_extend_list_coloring(h, lists).items())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_list_extension_matches_the_reference_on_interchangeable_colors(data):
    # Lists as solve builds them: one palette 1..k less a few colors per
    # vertex.  Many colors then lie in exactly the same lists, and the
    # search tries only the lowest unused one of each such set.
    h = data.draw(st.sampled_from(CATALOG_SHAPES))
    k = data.draw(st.integers(h.max_degree() - 1, 10))
    lists = {}
    for v in range(h.n):
        drop = data.draw(st.sets(st.integers(1, k), max_size=k - h.degree(v) + 1))
        lists[v] = frozenset(range(1, k + 1)) - drop
    got = extend_list_coloring(h, {v: mask_of(l) for v, l in lists.items()})
    assert list(got.items()) == list(reference_extend_list_coloring(h, lists).items())


def catalog_corpus():
    """Seeded random graphs, n 8..13, density 0.5..0.85; every third one with
    n >= 9 has a K3 v 3K2 planted on nine random vertices."""
    rng = random.Random(2006)
    k3_shape = join(complete_graph(3), three_k2())
    out = []
    for i in range(240):
        n = rng.randint(8, 13)
        g = random_graph(n, rng.uniform(0.5, 0.85), rng.randrange(10**6))
        if i % 3 == 0 and n >= 9:
            nine = rng.sample(range(n), 9)
            inside = set(nine)
            edges = [(u, v) for u, v in g.edges()
                     if not (u in inside and v in inside)]
            edges += [(nine[a], nine[b]) for a, b in k3_shape.edges()]
            g = build_graph(n, edges)
        out.append(g)
    return out


def test_catalog_detection_is_pinned():
    digest = hashlib.sha256()
    sizes = []
    for g in catalog_corpus():
        got = find_d1_catalog(g)
        digest.update(repr(got).encode())
        sizes.append(None if got is None else len(got))
    assert {None, 8, 9} <= set(sizes)
    assert digest.hexdigest() == CATALOG_DETECTION_SHA256


def test_catalog_detection_matches_the_reference_on_random_graphs():
    # n 6..16 at densities 0.5 and 0.7, and n 6..11 at 0.85, where the
    # reference's walk over every triple of common edges takes up to half a
    # second a graph; over a hundred of them have Delta above 9 and a
    # triangle with more than 7 common neighbors
    wide = 0
    for i in range(2000):
        p = (0.5, 0.7, 0.85)[i % 3]
        g = random_graph(random.Random(i).randint(6, 11 if p == 0.85 else 16), p, i)
        assert find_d1_catalog(g) == reference_find_d1_catalog(g), i
        wide += g.max_degree() > 9 and any((g.adj[u] & g.adj[v] & g.adj[w]).bit_count() > 7
                                           for u, v, w in _reference_triangles(g))
    assert wide > 100


def test_catalog_detection_matches_the_reference_on_the_corpus():
    for g in catalog_corpus():
        assert find_d1_catalog(g) == reference_find_d1_catalog(g)


def test_catalog_detection_matches_the_reference_on_benchmark_components(monkeypatch):
    # every component the base case hands the rule on core9 and sweep9
    seen = []
    monkeypatch.setattr(solver, "find_d1_catalog", lambda g: seen.append(g) or find_d1_catalog(g))
    for name in ("core9", "sweep9"):
        for seed in (7, 11):
            for inp in benchmark_inputs(name, seed):
                solver.solve(parse_graph(inp.g6, "graph6"))
    assert len(seen) == 428
    for g in seen:
        assert find_d1_catalog(g) == reference_find_d1_catalog(g)


# -- hitting independent set ---------------------------------------------------------

def _dominated(g: Graph, vs) -> bool:
    seen = mask_of(vs)
    for v in vs:
        seen |= g.adj[v]
    return seen == g.full_mask()


def _assert_maximal_hitting(g: Graph, got) -> None:
    """``got`` is independent, dominates ``g`` (so it is maximal) and meets
    every clique of Delta-1 vertices, all checked by brute force."""
    assert g.is_independent(got)
    assert _dominated(g, got)
    for c in brute_cliques(g, g.max_degree() - 1):
        assert set(c) & set(got), c


def _hitting(g: Graph) -> tuple[int, ...]:
    """``hitting_mis`` of all of ``g``, with no component capped, in
    increasing order."""
    return tuple(bits(hitting_mis(g, g.full_mask(), g.max_degree(), g.n)))


def test_hitting_rejects_tight_clique():
    with pytest.raises(PreconditionError):
        _hitting(build_graph(2, []))  # omega=1 > Delta-1=-1


def test_hitting_c5_join_k4():
    g = join(cycle_graph(5), complete_graph(4))
    assert g.max_degree() == 8 and clique_number(g)[0] == 6
    got = _hitting(g)
    _assert_maximal_hitting(g, got)


def test_hitting_with_tight_cliques():
    # G2-template expansion with a 9-clique at Delta = 10: omega = Delta - 1
    sizes = {"Q1": 2, "Q2": 1, "Q3": 3, "Q4": 4, "Q5": 1, "Q6": 2}
    g, bags = gen_class_instance(GenSpec("G2", sizes))
    assert g.max_degree() == 10 and clique_number(g)[0] == 9
    got = _hitting(g)
    _assert_maximal_hitting(g, got)
    big = set(bags["Q3"]) | set(bags["Q4"]) | set(bags["Q6"])
    assert set(got) & big


def test_hitting_uses_the_global_clique_size():
    # This G1 member, numbered backwards, has Delta = omega = 8, and the
    # greedy fill alone (the lowest vertex left, again and again) misses its
    # 8-clique.  Beside gallery_g2(9) the union has Delta 9, so the 8-clique
    # is a (Delta-1)-clique that the set must meet, even though its own
    # component has maximum degree 8.
    sizes = {"Q1": 4, "Q2": 4, "Q3": 1, "Q4": 4, "Q5": 1}
    made, _ = gen_class_instance(GenSpec("G1", sizes))
    one = build_graph(made.n, [(made.n - 1 - u, made.n - 1 - v) for u, v in made.edges()])
    assert one.n == 14 and one.max_degree() == 8 and clique_number(one)[0] == 8
    eight = [mask_of(c) for c in combinations(range(one.n), 8) if one.is_clique(c)]
    plain = _hitting_component(one.adj, one.full_mask(), [])
    assert any(not c & plain for c in eight)
    with pytest.raises(PreconditionError):
        _hitting(one)
    g = disjoint_union(one, gallery_g2(9))
    assert g.max_degree() == 9
    got = _hitting(g)
    _assert_maximal_hitting(g, got)
    assert all(c & mask_of(got) for c in eight)


@given(st.lists(st.tuples(st.integers(1, 7), st.sampled_from((0.3, 0.5, 0.7, 0.9)),
                          st.integers(0, 10_000)), min_size=2, max_size=3))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_hitting_matches_brute_force_on_unions(parts):
    # Below the theorem's range an independent set meeting every
    # (Delta-1)-clique need not exist; the search must then say so.
    assume(sum(n for n, _, _ in parts) <= 14)
    g = random_graph(*parts[0])
    for n, p, seed in parts[1:]:
        g = disjoint_union(g, random_graph(n, p, seed))
    size = g.max_degree() - 1
    assume(size >= 1 and clique_number(g)[0] <= size)
    cliques = [set(c) for c in combinations(range(g.n), size) if g.is_clique(c)]
    if not any(g.is_independent(s) and all(c & set(s) for c in cliques)
               for k in range(g.n + 1) for s in combinations(range(g.n), k)):
        with pytest.raises(InternalInconsistencyError, match="no independent set"):
            _hitting(g)
        return
    _assert_maximal_hitting(g, _hitting(g))


def _outcome(f, *args):
    """What ``f(*args)`` returns, or the type and text of the error it raises."""
    try:
        return f(*args)
    except PentagemError as exc:
        return type(exc), str(exc)


def hitting_sweep():
    """150 random cographs in seeded vertex orders (their joins make true
    twins), then 400 random graphs and disjoint unions of up to three random
    graphs, each with at most 16 vertices, from a fixed seed."""
    rng = random.Random(16)
    for _ in range(150):
        yield relabelled(random_cograph(rng.randint(1, 16), rng.randrange(10_000)), rng)
    for _ in range(400):
        g = random_graph(rng.randint(1, 10), rng.choice((0.3, 0.5, 0.7, 0.8, 0.9)),
                         rng.randrange(10_000))
        for _ in range(rng.randint(0, 2)):
            part = random_graph(rng.randint(1, 7), rng.choice((0.5, 0.8, 0.9)),
                                rng.randrange(10_000))
            if g.n + part.n <= 16:
                g = disjoint_union(g, part)
        yield g


def test_the_mask_searches_match_the_recursive_references():
    tight = 0
    rng = random.Random(61)
    for g in list(hitting_sweep()) + [k9_with_ears()]:
        full = g.full_mask()
        assert maximum_independent_set(g) == brute_least_maximum_independent_set(g)
        assert [tuple(bits(c)) for c in _maximal_cliques(g.adj, full, 0)] == \
            sorted(reference_maximal_cliques(g))
        mask = rng.getrandbits(g.n)
        sub, ids = induced_subgraph(g, bits(mask))
        assert maximum_independent_set(sub) == brute_least_maximum_independent_set(sub)
        every = sorted(tuple(ids[v] for v in c) for c in reference_maximal_cliques(sub))
        for least in range(5):
            # the bounded enumeration is the unbounded one filtered, in lex order
            assert [tuple(bits(c)) for c in _maximal_cliques(g.adj, mask, least)] == [
                c for c in every if len(c) >= least], least
        try:
            got = _hitting(g)
        except PentagemError as exc:
            assert (type(exc), str(exc)) == _outcome(reference_hitting_mis, g)
        else:
            assert got == reference_hitting_mis(g)
            _assert_maximal_hitting(g, got)
        delta = g.max_degree()
        if delta >= 2 and not has_clique(g, full, delta) and has_clique(g, full, delta - 1):
            tight += 1
    assert tight >= 50, tight


def test_a_hitting_set_exists_from_degree_6_on():
    # King (J. Graph Theory 2011): once omega > 2(Delta+1)/3, which omega =
    # Delta-1 meets from Delta = 6 on, a stable set meets every maximum
    # clique, and the search finds one whenever one exists
    below = tight = 0
    for g in hitting_sweep():
        try:
            _hitting(g)
        except InternalInconsistencyError as exc:
            assert "no independent set" in str(exc) and g.max_degree() < 6, g.edges()
            below += 1
        except PreconditionError:
            pass  # a clique of Delta vertices
        else:
            tight += g.max_degree() >= 6 and has_clique(g, g.full_mask(), g.max_degree() - 1)
    assert below >= 1 and tight >= 30, (below, tight)


def test_hitting_mis_caps_no_component():
    # 45 vertices in one component with Delta 10: over B(10) = 36, so the
    # cap degree reduction passes reports it, but with the graph's order as
    # the cap the search still answers
    g = caterpillar(5, leaves=8)
    assert is_connected(g) and g.n > bacso_tuza_bound(g.max_degree())
    with pytest.raises(InternalInconsistencyError, match="exceeds 36, the Bacsó-Tuza bound"):
        hitting_mis(g, g.full_mask(), 10, bacso_tuza_bound(10))
    got = _hitting(g)
    assert got == reference_hitting_mis(g)
    _assert_maximal_hitting(g, got)


def test_the_bacso_tuza_bound():
    assert [bacso_tuza_bound(d) for d in (0, 1, 2, 3, 9, 10, 359)] == [
        1, 2, 5, 8, 30, 36, 32580]


@given(st.integers(1, 12), st.sampled_from((0.2, 0.4, 0.6, 0.8)), st.integers(0, 10_000))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_a_connected_p5_free_graph_is_dominated_and_within_the_bound(n, p, seed):
    g = random_graph(n, p, seed)
    assume(is_connected(g) and find_induced(g, "P5") is None)
    assert g.n <= bacso_tuza_bound(g.max_degree())
    cliques = (c for k in range(1, n + 1) for c in combinations(range(n), k)
               if g.is_clique(c))
    p3s = ((a, b, c) for b in range(n) for a, c in combinations(g.neighbors(b), 2)
           if not g.has_edge(a, c))
    assert any(_dominated(g, vs) for vs in cliques) or any(_dominated(g, vs) for vs in p3s)


# -- Brooks ---------------------------------------------------------------------------

def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def test_brooks_petersen():
    g = petersen()
    col = brooks_color(g)
    assert col.k == 3 and verify_coloring(g, col)


def test_brooks_c5_join_k4():
    g = join(cycle_graph(5), complete_graph(4))
    col = brooks_color(g)
    assert col.k == 8 and verify_coloring(g, col)


def test_brooks_k4_minus_edge():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    col = brooks_color(g)
    assert col.k == 3 and verify_coloring(g, col)


def test_brooks_rejects_complete_component():
    with pytest.raises(PreconditionError):
        brooks_color(complete_graph(5))


def test_brooks_odd_cycle_component_beside_high_degree():
    g = disjoint_union(cycle_graph(5), join(complete_graph(1), cycle_graph(4)))
    col = brooks_color(g)
    assert col.k == 4 and verify_coloring(g, col)


def test_brooks_regular_with_cut_vertex():
    # two K4s sharing one vertex minus enough edges: build a 3-regular
    # connected graph with a cut vertex: two K4-minus-edge blocks glued
    blocks = build_graph(7, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
                             (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)])
    # degrees: vertex 3 is the cut; graph is not regular, still exercises
    # the articulation path through its blocks
    col = brooks_color(blocks)
    assert col.k == blocks.max_degree() and verify_coloring(blocks, col)


@pytest.mark.parametrize("seed", range(25))
def test_brooks_random(seed):
    g = random_graph(random.Random(seed).randint(4, 14), 0.4, seed * 3 + 1)
    delta = g.max_degree()
    if delta < 3:
        return
    omega, witness = clique_number(g)
    if omega > delta:
        return
    from pentagem.graph import connected_components, induced_subgraph
    if any(induced_subgraph(g, comp)[0] == complete_graph(delta + 1)
           for comp in connected_components(g)):
        return
    col = brooks_color(g)
    assert col.k == delta and verify_coloring(g, col)


# sha256 over brooks_color's colors on ``brooks_corpus()``, recorded while
# Brooks still copied each component into its own Graph
BROOKS_SHA256 = "f003263815fd4a66a34406c8524e912686c38390948466c5094346c993f15a35"


def circulant(n: int, jumps) -> Graph:
    return build_graph(n, {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps})


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def glued_blocks(blocks) -> Graph:
    """A hub glued to d/2 blocks, each a d-regular graph less its edge 0-1,
    with the hub joined to both ends: d-regular, with the hub a cut vertex."""
    hub = sum(b.n for b in blocks)
    edges, base = [], 0
    for b in blocks:
        edges += [(base + u, base + v) for u, v in b.edges() if (u, v) != (0, 1)]
        edges += [(base, hub), (base + 1, hub)]
        base += b.n
    return build_graph(hub + 1, edges)


def brooks_corpus():
    """Seeded random graphs (n 4..16, several densities), circulants, hubs
    glued to circulant blocks, and unions of pairs of these, each also in
    one seeded relabelling; graphs outside Brooks' hypotheses (Delta < 3, or
    a complete component on Delta+1 vertices) are left out."""
    rng = random.Random(2027)
    graphs = [random_graph(rng.randint(4, 16), rng.choice((0.25, 0.4, 0.55, 0.7)),
                           rng.randrange(10 ** 6)) for _ in range(240)]
    graphs += [circulant(n, jumps) for n in range(7, 16)
               for jumps in ((1, 2), (1, 3), (1, 2, 4), (2, 3, 5), (1, 2, 3, 4))]
    for d in (4, 6, 8):
        blocks = [circulant(n, range(1, d // 2 + 1)) for n in range(d + 2, d + 6)]
        graphs += [glued_blocks([rng.choice(blocks) for _ in range(d // 2)])
                   for _ in range(6)]
    graphs += [disjoint_union(*rng.sample(graphs, 2)) for _ in range(60)]
    graphs += [relabelled(g, rng) for g in graphs]
    out = []
    for g in graphs:
        delta = g.max_degree()
        if delta >= 3 and not any(len(c) == delta + 1 and g.is_clique(c)
                                  for c in connected_components(g)):
            out.append(g)
    return out


def brooks_branch(g: Graph, comp) -> str:
    """Which of Brooks' three cases colors the component ``comp``."""
    sub, _ = induced_subgraph(g, comp)
    if sub.min_degree() < g.max_degree():
        return "low degree"
    if any(not is_connected(induced_subgraph(sub, set(range(sub.n)) - {v})[0])
           for v in range(sub.n)):
        return "cut vertex"
    return "regular"


def test_brooks_colors_are_pinned():
    digest = hashlib.sha256()
    branches = Counter()
    for g in brooks_corpus():
        col = brooks_color(g)
        assert col.k == g.max_degree() and verify_coloring(g, col)
        digest.update(repr((col.k, sorted(col.colors.items()))).encode())
        branches.update(brooks_branch(g, c) for c in connected_components(g))
    assert set(branches) == {"low degree", "cut vertex", "regular"}, branches
    assert digest.hexdigest() == BROOKS_SHA256


def brooks_masks():
    """(host, mask) pairs: every third graph of the Brooks corpus on its whole
    vertex set, 60 of them beside a random graph inside a shuffled union with
    the mask on their copy, random graphs under random masks, complete
    components on Delta+1 vertices beside others, and graphs of maximum
    degree 2 or less."""
    rng = random.Random(2031)
    corpus = brooks_corpus()
    pairs = [(g, g.full_mask()) for g in corpus[::3]]
    for g in rng.sample(corpus, 60):
        noise = random_graph(rng.randint(1, 12), 0.5, rng.randrange(10 ** 6))
        union = disjoint_union(noise, g)
        perm = list(range(union.n))
        rng.shuffle(perm)
        host = build_graph(union.n, [(perm[u], perm[v]) for u, v in union.edges()])
        pairs.append((host, mask_of(perm[noise.n + v] for v in range(g.n))))
    for _ in range(200):
        g = random_graph(rng.randint(4, 16), rng.choice((0.3, 0.5, 0.7)), rng.randrange(10 ** 6))
        pairs.append((g, mask_of(v for v in range(g.n) if rng.random() < 0.8)))
    for n, jumps in ((5, (1, 2)), (7, (1, 2, 3)), (8, (1, 2))):
        for other in (complete_graph(4), circulant(n, jumps), cycle_graph(6)):
            g = disjoint_union(other, complete_graph(len(jumps) * 2 + 1))
            pairs.append((g, g.full_mask()))
    pairs += [(g, g.full_mask()) for g in (path_graph(6), cycle_graph(7), complete_graph(3),
                                           disjoint_union(cycle_graph(5), path_graph(3)))]
    pairs.append((complete_graph(6), mask_of((0, 1, 2))))
    return pairs


def test_brooks_matches_the_reference_on_masks():
    # the same colors in the same insertion order, and the same delta, or the
    # same error with the same message
    seen = Counter()
    for host, mask in brooks_masks():
        try:
            want = reference_brooks_mask(host.adj, mask)
        except PentagemError as exc:
            with pytest.raises(type(exc)) as info:
                brooks_mask(host.adj, mask)
            assert str(info.value) == str(exc)
            seen[str(exc)] += 1
            continue
        colors, delta = brooks_mask(host.adj, mask)
        assert delta == want[1] and list(colors.items()) == list(want[0].items())
        sub, _ = induced_subgraph(host, bits(mask))
        seen.update(brooks_branch(sub, c) for c in connected_components(sub))
    assert set(seen) == {"low degree", "cut vertex", "regular",
                         "Brooks coloring requires maximum degree >= 3",
                         "component is the complete graph on Delta+1 vertices"}, seen
    assert min(seen.values()) >= 8, seen


def regular_before_low_unions():
    """(host, mask) pairs: shuffled unions of a delta-regular graph (a
    circulant, or a hub glued to blocks) with one to three delta-regular
    graphs less an edge, relabelled so that the regular component holds
    vertex 0 and so lies below every low component; and K_{delta+1}
    beside a regular graph and a graph of maximum degree 2 or less."""
    rng = random.Random(2041)
    regulars = [circulant(n, jumps) for n in range(7, 13) for jumps in ((1, 2), (1, 3), (1, 2, 4))]
    regulars.append(glued_blocks([circulant(6, (1, 2)), circulant(7, (1, 2))]))
    pairs = []
    for reg in regulars * 3:
        parts = [reg]
        for _ in range(rng.randint(1, 3)):
            other = rng.choice([r for r in regulars if r.max_degree() == reg.max_degree()])
            parts.append(build_graph(other.n, list(other.edges())[1:]))
        rng.shuffle(parts)
        union = parts[0]
        for part in parts[1:]:
            union = disjoint_union(union, part)
        first = sum(p.n for p in parts[:next(i for i, p in enumerate(parts) if p is reg)])
        perm = list(range(union.n))
        rng.shuffle(perm)
        zero = perm.index(0)
        perm[zero], perm[first] = perm[first], perm[zero]
        host = build_graph(union.n, [(perm[u], perm[v]) for u, v in union.edges()])
        pairs.append((host, host.full_mask()))
    for d, other in ((3, circulant(8, (1, 4))), (4, circulant(9, (1, 2))),
                     (6, circulant(9, (1, 2, 3)))):
        for low in (cycle_graph(7), path_graph(5)):
            g = disjoint_union(disjoint_union(other, low), complete_graph(d + 1))
            pairs += [(g, g.full_mask()), (relabelled(g, rng), g.full_mask())]
    return pairs


def test_brooks_matches_its_frozen_copy():
    # the same colors in the same insertion order as the Brooks coloring
    # that searched for the components first, kept verbatim, or the same
    # PreconditionError with the same message
    seen = Counter()
    for host, mask in brooks_masks() + regular_before_low_unions():
        deg = {v: (host.adj[v] & mask).bit_count() for v in bits(mask)}
        try:
            want = reference_brooks_by_degree(host.adj, mask, deg, max(deg.values(), default=0))
        except PreconditionError as exc:
            with pytest.raises(PreconditionError) as info:
                brooks_mask(host.adj, mask)
            assert str(info.value) == str(exc)
            seen[str(exc)] += 1
            continue
        colors, delta = brooks_mask(host.adj, mask)
        assert list(colors.items()) == list(want.items())
        comps = component_masks(host.adj, mask)
        regular = [c for c in comps if all(deg[v] == delta for v in bits(c))]
        seen["regular below low"] += any(r & -r < c & -c for r in regular
                                         for c in comps if c not in regular)
    assert seen["regular below low"] >= 40, seen
    assert seen["Brooks coloring requires maximum degree >= 3"] >= 8, seen
    assert seen["component is the complete graph on Delta+1 vertices"] >= 8, seen


# -- degree reduction -----------------------------------------------------------------

def test_delta_reduce_gallery_family():
    from pentagem.solver import solve
    for t in (10, 12):
        g = gallery_g2(t)
        col, _ = solve(g)
        assert col.k == t - 1
        assert verify_coloring(g, col)
        assert len(set(col.colors.values())) <= t - 1


def test_hitting_two_tight_cliques_across_components():
    sizes = {"Q1": 2, "Q2": 1, "Q3": 3, "Q4": 4, "Q5": 1, "Q6": 2}
    one, _ = gen_class_instance(GenSpec("G2", sizes))
    g = disjoint_union(one, one)
    assert g.max_degree() == 10 and clique_number(g)[0] == 9
    got = _hitting(g)
    _assert_maximal_hitting(g, got)
    # both components carry a 9-clique; the set must meet each
    nines = [c for c in _maximal_cliques(g.adj, g.full_mask(), 0) if c.bit_count() == 9]
    assert len(nines) >= 2
    for clique in nines:
        assert mask_of(got) & clique


def test_brooks_regular_graph_with_cut_vertex():
    # two K5-minus-an-edge blocks glued through a fresh hub adjacent to the
    # four degree-3 vertices: 4-regular with an articulation point
    # (3-regular graphs cannot have one, by a handshake parity argument)
    edges = []
    for base in (0, 5):
        vs = list(range(base, base + 5))
        edges += [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]
        edges.remove((base, base + 1))
    hub = 10
    edges += [(0, hub), (1, hub), (5, hub), (6, hub)]
    g = build_graph(11, edges)
    assert g.max_degree() == 4 and g.min_degree() == 4
    from pentagem.reductions import _connected_without
    assert not _connected_without(g.adj, g.full_mask(), 1 << hub)
    col = brooks_color(g)
    assert col.k == 4 and verify_coloring(g, col)
