import random
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import pytest

from pentagem.coloring import (Coloring, back_degree_profile, first_fit,
                               color_with_independent_sets, degeneracy_order,
                               greedy_color, verify_coloring)
from pentagem.errors import PreconditionError
from pentagem.graph import (build_graph, complete_graph, cycle_graph, empty_graph,
                            path_graph)
from pentagem.instances import GenSpec, gen_class_instance
from pentagem.strategies import published_plan

from helpers import random_graph, reference_first_fit, reference_verify_coloring


def test_verify_accepts_proper():
    assert verify_coloring(complete_graph(3), Coloring({0: 1, 1: 2, 2: 3}, 3))


def test_verify_rejects_monochromatic_edge():
    assert not verify_coloring(complete_graph(3), Coloring({0: 1, 1: 1, 2: 2}, 3))


def test_verify_rejects_partial_and_out_of_palette():
    assert not verify_coloring(complete_graph(2), Coloring({0: 1}, 2))
    assert not verify_coloring(complete_graph(2), Coloring({0: 1, 1: 3}, 2))


@pytest.mark.parametrize("colors, why", [
    ({0: 1, 1: 2}, "vertex 2 is missing"),
    ({0: 1, 1: 2, 3: 3}, "key 3 lies outside 0..2, with the right count"),
    ({0: 1, 1: 2, 2: 3, 3: 1}, "key 3 lies outside 0..2, beside all of them"),
    ({0: 1, 1: 2, 2: 0}, "color 0"),
    ({0: 1, 1: 2, 2: 4}, "color k+1"),
    ({0: 1, 1: 1, 2: 2}, "edge 0-1 is monochromatic"),
])
def test_verify_rejects_each_failure(colors, why):
    g = path_graph(3)
    assert verify_coloring(g, Coloring({0: 1, 1: 2, 2: 3}, 3))
    assert not verify_coloring(g, Coloring(colors, 3)), why


def test_verify_agrees_with_the_edge_walk():
    # proper, improper, partial, off-palette and out-of-range colorings alike
    verdicts = Counter()
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(0, 12)
        g = random_graph(n, rng.choice((0.1, 0.3, 0.5)), seed)
        k = rng.randint(1, 6)
        colors = {v: rng.randint(1, k) for v in range(n)}
        if n and seed % 4 == 0:
            v = rng.randrange(n)
            colors[v] = rng.choice((0, k + 1, None))
            if colors[v] is None:  # missing, and with every third seed replaced
                del colors[v]
                if seed % 3 == 0:
                    colors[n] = 1
        coloring = Coloring(colors, k)
        verdict = verify_coloring(g, coloring)
        assert verdict == reference_verify_coloring(g, coloring), seed
        verdicts[verdict] += 1
    assert min(verdicts[True], verdicts[False]) > 50, verdicts


def test_first_fit_agrees_with_the_set_of_neighbor_colors():
    # pre-placed colors inside and outside the palette, vertices colored
    # twice, orders that list a vertex more than once or only once (the
    # used-color walk), boards that color vertices no vertex of the order
    # sees (some of them not in the graph), palettes too small, and k of 0,
    # below 0 or huge: the same colors in the same insertion order, or the
    # same error after the same partial writes; a color of 10**12 on the
    # board allocates nothing
    outcomes = Counter()
    for seed in range(800):
        rng = random.Random(seed)
        n = rng.randint(0, 12)
        g = random_graph(n, rng.choice((0.2, 0.4, 0.7)), seed)
        k = rng.choice((10**12, 0, -3)) if rng.random() < 0.2 else rng.randint(1, 12)
        odd = (0, -1, -7, k + 1, k + 5, 10**12)
        placed = {v: rng.choice(odd) if rng.random() < 0.3 else rng.randint(1, min(max(k, 1), 12))
                  for v in rng.sample(range(n + 4), rng.randint(0, n + 4))}
        if n and rng.random() < 0.5:
            order = [rng.randrange(n) for _ in range(rng.randint(1, 2 * n))]
        else:
            order = rng.sample(range(n), rng.randint(0, n))
        mine, ref = dict(placed), dict(placed)
        try:
            reference_first_fit(g.adj, order, k, ref)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError) as info, _small_peak():
                first_fit(g.adj, order, k, mine)
            assert str(info.value) == str(exc), seed
            outcomes["error"] += 1
        else:
            with _small_peak():
                first_fit(g.adj, order, k, mine)
            outcomes["colored"] += 1
        assert list(mine.items()) == list(ref.items()), seed
        outcomes["repeats"] += len(set(order)) < len(order)
        outcomes["one vertex"] += len(order) == 1
        outcomes["huge k"] += k == 10**12
        outcomes["k below 1"] += k < 1
        outcomes["outside"] += any(v >= n for v in placed)
        outcomes["huge color"] += 10**12 in placed.values()
    assert min(outcomes.values()) > 40, outcomes


@contextmanager
def _small_peak():
    """Fail if the block's allocations ever reach 64 KiB."""
    tracemalloc.start()
    try:
        yield
    finally:  # checked on the error path too
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 16, peak


@pytest.mark.parametrize("k, want", [(10**12, 2), (3, 2), (1, None), (0, None), (-3, None)])
def test_first_fit_of_one_vertex_skips_colors_above_its_palette(k, want):
    # vertex 1 of the path 0-1-2 sees 10**12 and 1: it takes 2, or fails
    # as the reference does, without building a mask up to 10**12
    g = path_graph(3)
    mine, ref = {0: 10**12, 2: 1}, {0: 10**12, 2: 1}
    if want is None:
        with pytest.raises(PreconditionError) as want_info:
            reference_first_fit(g.adj, [1], k, ref)
        with pytest.raises(PreconditionError) as info, _small_peak():
            first_fit(g.adj, [1], k, mine)
        assert str(info.value) == str(want_info.value)
    else:
        reference_first_fit(g.adj, [1], k, ref)
        with _small_peak():
            first_fit(g.adj, (1,), k, mine)
        assert mine[1] == want
    assert mine == ref


def test_back_degree_complete():
    assert back_degree_profile(complete_graph(4), [2, 0, 3, 1]) == 3


def test_back_degree_tree_degeneracy():
    tree = build_graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    order = degeneracy_order(tree)
    assert back_degree_profile(tree, order) == 1


def test_back_degree_rejects_non_permutation():
    with pytest.raises(PreconditionError):
        back_degree_profile(complete_graph(3), [0, 1])


def test_case2_spec_example_profile():
    # all-2 member of the second class: published two-set order stays under 5
    g, bags = gen_class_instance(GenSpec("G2", {f"Q{i}": 2 for i in range(1, 7)}))
    sets, order = published_plan("G2", "two_sets", bags)
    removed = set().union(*map(set, sets))
    rest = sorted(v for v in range(g.n) if v not in removed)
    from pentagem.graph import induced_subgraph
    sub, ids = induced_subgraph(g, rest)
    pos = {v: i for i, v in enumerate(ids)}
    assert back_degree_profile(sub, [pos[v] for v in order]) <= 5


def test_sets_coloring_c5():
    g = cycle_graph(5)
    col = color_with_independent_sets(g, [(1, 3)], 3)
    assert col.k == 3 and verify_coloring(g, col)
    assert col.colors[1] == col.colors[3] == 3


def test_sets_coloring_matching_remainder_empty():
    # K6 minus a perfect matching: the three matching pairs soak everything
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)
             if (u, v) not in ((0, 1), (2, 3), (4, 5))]
    g = build_graph(6, edges)
    col = color_with_independent_sets(g, [(0, 1), (2, 3), (4, 5)], 3)
    assert verify_coloring(g, col)


def test_sets_coloring_rejects_dependent_set():
    with pytest.raises(PreconditionError):
        color_with_independent_sets(complete_graph(3), [(0, 1)], 3)


@pytest.mark.parametrize("sets, k, message", [
    ([(0,), (1,)], 1, "more independent sets than colors"),
    ([(0, 1), (1, 2)], 3, "independent sets are not disjoint"),
])
def test_sets_coloring_words_bad_sets(sets, k, message):
    with pytest.raises(PreconditionError) as err:
        color_with_independent_sets(empty_graph(3), sets, k)
    assert type(err.value) is PreconditionError and str(err.value) == message


def test_sets_coloring_rejects_bad_bound():
    # remainder K4 is not 1-degenerate
    g = complete_graph(5)
    with pytest.raises(PreconditionError):
        color_with_independent_sets(g, [(0,)], 3)


def test_greedy_respects_palette():
    with pytest.raises(PreconditionError):
        greedy_color(complete_graph(4), [0, 1, 2, 3], 3)


def test_degeneracy_order_smallest_last():
    g = path_graph(5)
    order = degeneracy_order(g)
    assert back_degree_profile(g, order) == 1
