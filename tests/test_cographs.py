import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagem.cographs import (cograph_coloring_with_palette, cograph_optimal_coloring,
                               cograph_split, is_cograph)
from pentagem.coloring import Coloring, verify_coloring
from pentagem.errors import PreconditionError
from pentagem.graph import (Graph, bits, complete_graph, cycle_graph, disjoint_union,
                            empty_graph, join, path_graph)
from pentagem.patterns import clique_number, induced_p4

from helpers import (brute_is_cograph, palette_corpus, random_graph,
                     reference_cograph_coloring_with_palette, reference_cotree_clique_number,
                     reference_cotree_to_graph, reference_is_cograph)


def three_k2():
    return disjoint_union(disjoint_union(complete_graph(2), complete_graph(2)),
                          complete_graph(2))


def rebuilt(g: Graph) -> Graph:
    """The graph on g's vertices whose only edges are those the split's
    joins put between their children."""
    adj = [0] * g.n
    for part, kind, kids in cograph_split(g, g.full_mask()):
        if kind == "join":
            for kid in kids:
                for v in bits(kid):
                    adj[v] |= part & ~kid
    return Graph(g.n, adj)


def reference_parts(tree):
    """The reference cotree's nodes as the split yields them: pre-order,
    each as (vertex mask, kind, child masks)."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append((node.vertex_mask(), node.kind, [c.vertex_mask() for c in node.children]))
        stack.extend(reversed(node.children))
    return out


def test_k4_is_cograph():
    g = complete_graph(4)
    assert is_cograph(g)
    assert rebuilt(g) == g == reference_cotree_to_graph(4, reference_is_cograph(g).tree)


def test_p4_witness():
    g = path_graph(4)
    assert not is_cograph(g)
    assert [kind for _, kind, _ in cograph_split(g, g.full_mask())] == [None]
    a, b, c, d = induced_p4(g, g.full_mask())
    assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
    assert not (g.has_edge(a, c) or g.has_edge(a, d) or g.has_edge(b, d))


def test_join_k2_2k2_tree_reproduces_graph():
    g = join(complete_graph(2), disjoint_union(complete_graph(2), complete_graph(2)))
    assert is_cograph(g)
    assert rebuilt(g) == g
    assert list(cograph_split(g, g.full_mask())) == reference_parts(reference_is_cograph(g).tree)


def test_optimal_coloring_k4():
    g = complete_graph(4)
    colors, k = cograph_optimal_coloring(g)
    assert k == 4
    assert verify_coloring(g, Coloring(colors, k))


def test_optimal_coloring_3k2():
    g = three_k2()
    colors, k = cograph_optimal_coloring(g)
    assert k == 2
    assert verify_coloring(g, Coloring(colors, k))


def test_optimal_coloring_join():
    # join adds clique numbers, union takes their maximum
    g = join(complete_graph(2), disjoint_union(complete_graph(2), complete_graph(2)))
    colors, k = cograph_optimal_coloring(g)
    assert k == 4 == clique_number(g)[0]
    assert verify_coloring(g, Coloring(colors, k))


def test_coloring_rejects_p4_certificate():
    with pytest.raises(PreconditionError, match="hold an induced P4"):
        cograph_optimal_coloring(path_graph(4))


def test_palette_pinning_keeps_fixed_colors():
    g = join(complete_graph(2), disjoint_union(complete_graph(2), complete_graph(1)))
    omega, witness = clique_number(g)
    fixed = {v: 10 + i for i, v in enumerate(witness)}
    colors = cograph_coloring_with_palette(g, g.full_mask(), sorted(fixed.values()), fixed)
    assert verify_coloring(g, Coloring(colors, max(fixed.values())))
    for v, c in fixed.items():
        assert colors[v] == c


def test_palette_too_small_rejected():
    g = complete_graph(3)
    with pytest.raises(PreconditionError):
        cograph_coloring_with_palette(g, g.full_mask(), [1, 2], {})


def test_a_join_out_of_spare_colors_is_a_precondition_error():
    # the fixed pair is not a clique: it takes two of the three colors, and
    # the K2 side needs two more (the cotree walker raised an IndexError)
    g = join(empty_graph(2), complete_graph(2))
    with pytest.raises(PreconditionError, match="runs out of spare colors"):
        cograph_coloring_with_palette(g, g.full_mask(), [1, 2, 3], {0: 1, 1: 2})


@given(st.integers(0, 600))
@settings(max_examples=80, deadline=None)
def test_recognition_matches_brute_force(seed):
    g = random_graph(7, 0.5, seed)
    assert is_cograph(g) == brute_is_cograph(g) == reference_is_cograph(g).is_cograph
    if is_cograph(g):
        assert rebuilt(g) == g
        colors, k = cograph_optimal_coloring(g)
        assert k == clique_number(g)[0] == reference_cotree_clique_number(
            reference_is_cograph(g).tree)
        assert verify_coloring(g, Coloring(colors, k))


def test_c5_is_not_cograph():
    assert not is_cograph(cycle_graph(5))


def test_the_split_and_the_palette_coloring_match_the_cotree_walker():
    # colors and their insertion order; each graph comes with three palettes,
    # and is colored again with half its fixed clique, which leaves a join
    # child with fixed colors and spare ones to draw
    for g, palette, fixed in palette_corpus():
        tree = reference_is_cograph(g).tree
        assert list(cograph_split(g, g.full_mask())) == reference_parts(tree)
        for pins in (fixed, dict(list(fixed.items())[:len(fixed) // 2])):
            got = cograph_coloring_with_palette(g, g.full_mask(), palette, pins)
            assert list(got.items()) == list(
                reference_cograph_coloring_with_palette(tree, palette, pins).items())
            assert verify_coloring(g, Coloring(got, max(palette)))
