import inspect
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagem import coloring
from pentagem.coloring import Coloring, list_color, verify_coloring
from pentagem.errors import OracleCapExceeded
from pentagem.graph import bits, complete_graph, cycle_graph, empty_graph, path_graph
from pentagem.instances import gallery_g1, gallery_g2
from pentagem.oracle import colorable_with, exact_chromatic
from pentagem.patterns import clique_number

from helpers import brute_chromatic, prism_cores, random_graph, reference_colorable_with


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


def test_list_color_keeps_fixed_colors_and_order():
    k3 = complete_graph(3)
    assert list_color(k3.adj, 7, [0b1110] * 3, {}) == {0: 1, 1: 2, 2: 3}
    assert list(list_color(k3.adj, 7, [0b1110] * 3, {1: 3}).items()) == [(1, 3), (0, 1), (2, 2)]
    # each color is listed by other vertices, so none is skipped
    assert list_color(k3.adj, 7, [0b1100, 0b1110, 0b0110], {}) == {0: 2, 2: 1, 1: 3}
    assert list_color(k3.adj, 7, [0b0010] * 3, {}) is None
    assert list_color(k3.adj, 0, [], {}) == {}
