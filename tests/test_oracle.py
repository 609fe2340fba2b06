import inspect
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagem import coloring, oracle
from pentagem.coloring import Coloring, list_color, verify_coloring
from pentagem.errors import OracleCapExceeded, PreconditionError
from pentagem.graph import bits, complete_graph, cycle_graph, empty_graph, path_graph
from pentagem.instances import gallery_g1, gallery_g2
from pentagem.oracle import colorable_with, exact_chromatic
from pentagem.patterns import _maximal_cliques, clique_number

from helpers import (brute_chromatic, catalog_shapes, cycle_blowup, prism_cores,
                     random_graph, reference_colorable_with, reference_list_color)


def test_c5_needs_three():
    chi, col = exact_chromatic(cycle_graph(5))
    assert chi == 3 and verify_coloring(cycle_graph(5), col)


def test_gallery_g1_chi_8():
    chi, col = exact_chromatic(gallery_g1())
    assert chi == 8 and verify_coloring(gallery_g1(), col)


def test_gallery_g2_chi_8():
    chi, col = exact_chromatic(gallery_g2(9))
    assert chi == 8 and verify_coloring(gallery_g2(9), col)


def test_cap_refusal_is_explicit():
    with pytest.raises(OracleCapExceeded):
        exact_chromatic(empty_graph(30), cap=24)
    chi, _ = exact_chromatic(empty_graph(30), cap=40)
    assert chi == 1


def test_colorable_with_boundaries():
    assert colorable_with(complete_graph(4), 3) is None
    got = colorable_with(complete_graph(4), 4)
    assert got is not None and len(set(got.values())) == 4


@pytest.mark.parametrize("seed", range(40))
def test_matches_brute_force(seed):
    import random
    g = random_graph(random.Random(seed).randint(1, 9), 0.5, seed * 17 + 1)
    chi, col = exact_chromatic(g)
    assert chi == brute_chromatic(g)
    assert verify_coloring(g, col) and max(col.colors.values(), default=0) <= chi


def _same(got, want):
    """Equal answers, and for a coloring the same insertion order."""
    if got is None or want is None:
        return got is want
    return list(got.items()) == list(want.items())


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.integers(0, 13), st.floats(0.0, 1.0), st.integers(0, 10 ** 6), st.integers(0, 6))
def test_colorable_with_matches_the_recursive_reference(n, p, seed, k):
    # the first coloring and its order, against the DSATUR search that kept
    # neighbor colors in sets and opened one fresh color at a time
    g = random_graph(n, p, seed)
    assert _same(colorable_with(g, k), reference_colorable_with(g, k))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(10, 20), st.floats(0.2, 0.8), st.integers(0, 10 ** 6), st.integers(-1, 2))
def test_colorable_with_matches_the_reference_near_the_clique_number(n, p, seed, dk):
    # k = omega - 1 .. omega + 2, where the searches backtrack most
    g = random_graph(n, p, seed)
    k = clique_number(g)[0] + dk
    assert _same(colorable_with(g, k), reference_colorable_with(g, k))


def test_colorable_with_matches_the_reference_on_the_prism_cores():
    for g in prism_cores():
        for k in (6, 7, 8):
            assert _same(colorable_with(g, k), reference_colorable_with(g, k))


def test_colorable_with_keeps_no_frame_per_vertex():
    # 300 vertices to color one after another; with 60 frames to spare, a
    # search with a frame per colored vertex could not finish
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        got = colorable_with(path_graph(300), 2)
    finally:
        sys.setrecursionlimit(limit)
    assert got is not None and verify_coloring(path_graph(300), Coloring(got, 2))


def test_a_huge_k_searches_no_more_colors_than_vertices():
    got = colorable_with(cycle_graph(5), 10 ** 12)
    assert got == reference_colorable_with(cycle_graph(5), 10 ** 12) and max(got.values()) == 3


def test_list_color_tries_one_of_each_set_of_interchangeable_colors(monkeypatch):
    # K8 from eight equal lists of 7 colors has no coloring.  Each node
    # tries only the lowest color no vertex holds yet, so the search fails
    # after one node per vertex (each node reads its neighbors once).
    calls = []

    def counted(mask):
        calls.append(mask)
        return bits(mask)

    monkeypatch.setattr(coloring, "bits", counted)
    k8 = complete_graph(8)
    assert list_color(k8.adj, k8.full_mask(), [0b11111110] * 8, {}) is None
    assert len(calls) <= 1 + 8


@pytest.mark.parametrize("length, a, chi, tries", [(5, 3, 8, 243), (5, 4, 10, 955),
                                                    (7, 3, 7, 534)])
def test_list_color_cuts_each_failed_state_by_its_own_key(monkeypatch, length, a, chi, tries):
    # exact_chromatic on C_length[K_a] fails at each k below chi, and many
    # paths of those searches reach one uncolored set with the same free
    # colors.  Inside list_color, bits runs once per fixed vertex and once
    # per color tried, so the count pins how often the failure memo cuts:
    # a key naming another state (the uncolored set without the vertex
    # that failed) cuts less and tries more.
    calls, inside = [], []
    real_bits, real_search = coloring.bits, oracle.list_color

    def counted(mask):
        if inside:
            calls.append(mask)
        return real_bits(mask)

    def search(*args):
        inside.append(True)
        try:
            return real_search(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(coloring, "bits", counted)
    monkeypatch.setattr(oracle, "list_color", search)
    g = cycle_blowup(length, a)
    got, col = exact_chromatic(g)
    assert got == chi and verify_coloring(g, col)
    assert len(calls) == tries


def test_list_color_keeps_fixed_colors_and_order():
    k3 = complete_graph(3)
    assert list_color(k3.adj, 7, [0b1110] * 3, {}) == {0: 1, 1: 2, 2: 3}
    assert list(list_color(k3.adj, 7, [0b1110] * 3, {1: 3}).items()) == [(1, 3), (0, 1), (2, 2)]
    # each color is listed by other vertices, so none is skipped
    assert list_color(k3.adj, 7, [0b1100, 0b1110, 0b0110], {}) == {0: 2, 2: 1, 1: 3}
    assert list_color(k3.adj, 7, [0b0010] * 3, {}) is None
    assert list_color(k3.adj, 0, [], {}) == {}


def test_list_color_refuses_a_mask_that_is_no_clique_inside_the_searched_mask():
    # the Hall cut counts a clique's members against their free colors,
    # which is sound only when they must all differ
    p3 = path_graph(3)
    lists = [0b1110] * 3
    for bad in (0b111, 0b1000, 0b11 | 0b1000, -1):
        with pytest.raises(PreconditionError, match="not a clique inside the searched mask"):
            list_color(p3.adj, 0b111, lists, {}, [0b11, bad])
    with pytest.raises(PreconditionError):
        list_color(p3.adj, 0b011, lists, {}, [0b110])
    got = list_color(p3.adj, 0b111, lists, {}, [0, 0b1, 0b11, 0b110])
    assert list(got.items()) == [(1, 1), (0, 2), (2, 2)]


def draw_cliques(data, adj, mask):
    """Any subset of the maximal cliques of the subgraph on ``mask``."""
    every = list(_maximal_cliques(adj, mask, 1))
    keep = data.draw(st.integers(0, (1 << len(every)) - 1))
    return [q for i, q in enumerate(every) if keep >> i & 1]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.data())
def test_list_color_with_hall_cuts_matches_the_reference(data):
    # random graphs, lists over colors 0..5, fixed vertices and cliques:
    # the cuts may only drop subtrees without a solution, so the first
    # solution and its order stay, and so does None
    n = data.draw(st.integers(0, 10))
    g = random_graph(n, data.draw(st.floats(0.0, 1.0)), data.draw(st.integers(0, 10 ** 6)))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    free = [data.draw(st.integers(0, 63)) for _ in range(n)]
    fixed = {v: data.draw(st.integers(0, 5)) for v in bits(mask)
             if data.draw(st.booleans())}
    cliques = draw_cliques(data, g.adj, mask)
    got = list_color(g.adj, mask, free, fixed, cliques)
    want = reference_list_color(g.adj, mask, free, fixed)
    assert (got is None) == (want is None)
    assert got is None or list(got.items()) == list(want.items())


CATALOG_SHAPES = catalog_shapes()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.data())
def test_list_color_with_hall_cuts_matches_the_reference_on_catalog_shapes(data):
    # lists of d(v) - 1 or more colors out of 0..9, as the catalog rule
    # guarantees, so a coloring always exists
    h = data.draw(st.sampled_from(CATALOG_SHAPES))
    free = []
    for v in range(h.n):
        size = data.draw(st.integers(h.degree(v) - 1, 10))
        free.append(sum(1 << c for c in data.draw(st.permutations(range(10)))[:size]))
    cliques = draw_cliques(data, h.adj, h.full_mask())
    got = list_color(h.adj, h.full_mask(), free, {}, cliques)
    assert got is not None
    assert list(got.items()) == list(reference_list_color(h.adj, h.full_mask(), free, {}).items())
