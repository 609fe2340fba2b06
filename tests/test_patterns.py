import importlib.util
import random
import sys
import time
import tracemalloc
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagem import patterns
from pentagem.classify import classify
from pentagem.errors import ForbiddenPatternError
from pentagem.graph import (bits, build_graph, complete_graph, cycle_graph, disjoint_union,
                            empty_graph, induced_subgraph, is_connected, join, mask_of,
                            path_graph)
from pentagem.graphio import parse_graph
from pentagem.instances import GenSpec, gallery_g1, gallery_g2, gen_class_instance
from pentagem.patterns import (FIFTH, PatternWitness, clique_number,
                               find_induced, has_clique, induced_p4, is_p5_gem_free,
                               maximum_independent_set)
from pentagem.structure import TEMPLATES

from helpers import (PATTERN_EDGES, _induces, brute_clique_number, brute_find_induced,
                     brute_least_maximum_independent_set, cocktail_party,
                     least_clique, random_cograph, random_graph, reference_clique_number,
                     reference_cotree_clique_number, reference_find_c5, reference_find_gem, reference_find_p4,
                     reference_find_p5, reference_has_clique, reference_is_cograph,
                     reference_is_p5_gem_free)

REFERENCE = {"P5": reference_find_p5, "GEM": reference_find_gem, "C5": reference_find_c5}


def gem():
    return join(complete_graph(1), path_graph(4))


def test_p5_finds_itself():
    w = find_induced(path_graph(5), "P5")
    assert w.vertices == (0, 1, 2, 3, 4)
    assert w.check(path_graph(5))


def test_gem_has_no_p5():
    assert find_induced(gem(), "P5") is None


def test_c5_in_gallery_g2():
    # brute force confirms at least one witness among the 5-subsets
    g = gallery_g2(9)
    w = find_induced(g, "C5")
    assert w is not None and w.check(g)
    assert brute_find_induced(g, "C5") is not None


def test_c5_is_free():
    free, w = is_p5_gem_free(cycle_graph(5))
    assert free and w is None


def test_p5_is_not_free():
    free, w = is_p5_gem_free(path_graph(5))
    assert not free and w.pattern == "P5"


def test_gallery_g1_is_free():
    free, _ = is_p5_gem_free(gallery_g1())
    assert free


def twin_rich_graphs():
    """Clique and cograph blow-ups of all 11 classes with bags of one to
    four vertices, as built and with one or three vertex pairs flipped,
    then random graphs."""
    rng = random.Random(2026)
    for cid, t in sorted(TEMPLATES.items()):
        for mode in ("clique", "cograph"):
            for seed in range(4):
                sizes = {x: rng.randint(1, 4) for x in t.nodes if x != t.pendant}
                a7 = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)) if t.pendant)
                g, _ = gen_class_instance(GenSpec(cid, sizes, a7, mode, seed))
                for flips in (0, 1, 3):
                    edges = {frozenset(e) for e in g.edges()}
                    for _ in range(flips):
                        edges ^= {frozenset(rng.sample(range(g.n), 2))}
                    yield build_graph(g.n, [tuple(e) for e in edges])
    for seed in range(150):
        yield random_graph(random.Random(seed).randint(5, 14), 0.5, seed)


def test_freeness_and_its_witness_match_the_whole_graph_walks():
    found = checked = 0
    for g in twin_rich_graphs():
        want = reference_is_p5_gem_free(g)
        assert is_p5_gem_free(g) == want
        checked += 1
        if want[0]:
            continue
        found += 1
        if is_connected(g):
            with pytest.raises(ForbiddenPatternError) as info:
                classify(g)
            assert info.value.witness == want[1]
            assert str(info.value) == f"graph contains an induced {want[1].pattern}"
    assert checked > 400 and 50 < found < checked, (found, checked)


def test_freeness_walks_one_vertex_per_twin_class(monkeypatch):
    # K_n is one class of true twins, each side of K_{n,n} one class of
    # false twins, and isolated vertices lie in no P5 or gem, so each walk
    # runs on a mask of at most as many vertices as the graph has classes
    walked = []

    def spy(g, mask, fifth=None):
        walked.append(mask.bit_count())
        return induced_p4(g, mask, fifth)

    monkeypatch.setattr(patterns, "induced_p4", spy)
    for g, classes in ((empty_graph(1000), 0), (complete_graph(1000), 1),
                       (disjoint_union(complete_graph(40), empty_graph(40)), 1),
                       (join(empty_graph(500), empty_graph(500)), 2),
                       (join(empty_graph(300), complete_graph(300)), 2)):
        walked.clear()
        assert is_p5_gem_free(g) == (True, None)
        assert walked == [classes, classes], walked


def test_clique_number_complete():
    assert clique_number(complete_graph(7))[0] == 7


def test_clique_number_gallery():
    omega, witness = clique_number(gallery_g1())
    assert omega == 6
    assert gallery_g1().is_clique(witness)
    assert clique_number(gallery_g2(9))[0] == 7


def test_clique_witness_is_lex_least():
    g = cycle_graph(5)
    assert clique_number(g)[1] == (0, 1)


@pytest.mark.parametrize("pattern", ["P5", "GEM", "C5"])
@pytest.mark.parametrize("seed", range(12))
def test_detection_matches_brute_force(pattern, seed):
    g = random_graph(8, 0.45, seed * 7 + 3)
    w = find_induced(g, pattern)
    b = brute_find_induced(g, pattern)
    if b is None:
        assert w is None
    else:
        assert w is not None and w.vertices == b and w.check(g)


@given(st.integers(0, 500), st.floats(0.15, 0.8))
@settings(max_examples=60, deadline=None)
def test_witnesses_verify(seed, p):
    g = random_graph(9, p, seed)
    for pattern in ("P5", "GEM", "C5"):
        w = find_induced(g, pattern)
        if w is not None:
            assert w.check(g)


@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_clique_number_brute_agreement(seed):
    g = random_graph(8, 0.5, seed)
    omega, witness = clique_number(g)
    assert omega == brute_clique_number(g)
    assert g.is_clique(witness) and len(witness) == omega


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_clique_le_delta_plus_one(seed):
    g = random_graph(9, 0.5, seed)
    omega, _ = clique_number(g)
    delta = g.max_degree()
    assert omega <= delta + 1
    if omega == delta + 1:
        # only a complete component realizes omega = Delta + 1
        from pentagem.graph import connected_components, induced_subgraph
        assert any(len(c) == omega and induced_subgraph(g, c)[0] == complete_graph(omega)
                   for c in connected_components(g))


@given(st.integers(0, 14), st.sampled_from((0.3, 0.5, 0.7, 0.9)), st.integers(0, 10_000),
       st.booleans())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_has_clique_agrees_with_the_clique_number(n, p, seed, full):
    g = random_graph(n, p, seed)
    mask = g.full_mask() if full else random.Random(seed).getrandbits(n)
    omega = clique_number(induced_subgraph(g, bits(mask))[0])[0]
    for size in range(n + 2):
        assert has_clique(g, mask, size) == (omega >= size), (size, omega)


@given(st.integers(0, 22), st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95)),
       st.integers(0, 10_000))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_the_clique_search_agrees_with_the_recursive_references(n, p, seed):
    g = random_graph(n, p, seed)
    assert clique_number(g) == reference_clique_number(g)
    for mask in (g.full_mask(), random.Random(seed).getrandbits(n)):
        sub, ids = induced_subgraph(g, bits(mask))
        omega, witness = reference_clique_number(sub)
        assert least_clique(g, mask, omega) == tuple(ids[v] for v in witness)
        for size in range(n + 2):
            assert has_clique(g, mask, size) == reference_has_clique(g, mask, size), size
            found = least_clique(g, mask, size)
            assert (found is not None) == (size <= omega), size
            assert found is None or (len(found) == size and g.is_clique(found)
                                     and not mask_of(found) & ~mask)


@given(st.integers(1, 60), st.integers(0, 10_000))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_the_clique_search_agrees_with_the_cotree_on_cographs(n, seed):
    g = random_cograph(n, seed)
    omega, witness = clique_number(g)
    assert omega == reference_cotree_clique_number(reference_is_cograph(g).tree)
    assert len(witness) == omega and g.is_clique(witness)
    full = g.full_mask()
    assert least_clique(g, full, omega) == witness
    assert has_clique(g, full, omega) and not has_clique(g, full, omega + 1)
    if n <= 16:  # the reference fixed-size test is exponential on cographs
        assert clique_number(g) == reference_clique_number(g)
        for size in range(n + 2):
            assert has_clique(g, full, size) == reference_has_clique(g, full, size), size


def test_a_cocktail_party_is_searched_in_polynomial_time():
    # 2^20 maximum cliques; without the coloring cut these calls take minutes
    start = time.perf_counter()
    g = disjoint_union(cocktail_party(20), complete_graph(40))
    assert clique_number(g) == (40, tuple(range(40, 80)))
    party = mask_of(range(40))
    assert least_clique(g, party, 20) == tuple(range(0, 40, 2))
    assert not has_clique(g, party, 21)
    assert clique_number(cocktail_party(20)) == (20, tuple(range(0, 40, 2)))
    assert time.perf_counter() - start < 2.0


def test_has_clique_decides_the_gate_on_every_benchmark_input(monkeypatch):
    # the sweep9 and delta workloads, built as the benchmark builds them
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    for name in ("sweep9", "delta"):
        for inp in workloads.BUILDERS[name](7):
            g = parse_graph(inp.g6, "graph6")
            omega, delta, full = clique_number(g)[0], g.max_degree(), g.full_mask()
            assert has_clique(g, full, delta) == (omega >= delta), inp.name
            assert has_clique(g, full, delta - 1) == (omega >= delta - 1), inp.name


def test_complete_component_reaches_delta_plus_one():
    g = disjoint_union(complete_graph(4), path_graph(4))
    assert clique_number(g)[0] == 4 == g.max_degree() + 1


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_maximum_independent_set_brute(seed):
    g = random_graph(8, 0.4, seed)
    assert maximum_independent_set(g) == brute_least_maximum_independent_set(g)


def test_pattern_witness_rejects_wrong_order():
    w = PatternWitness("C5", (0, 1, 2, 4, 3))
    assert not w.check(cycle_graph(5))


def test_witness_check_agrees_with_the_edge_sets_on_ordered_5_tuples():
    hits = dict.fromkeys(PATTERN_EDGES, 0)
    graphs = [random_graph(7, 0.5, seed) for seed in range(3)]
    for g in graphs + [join(complete_graph(1), disjoint_union(cycle_graph(5), path_graph(1)))]:
        for vs in permutations(range(7), 5):
            for pattern, edges in PATTERN_EDGES.items():
                want = _induces(g, vs, edges)
                assert PatternWitness(pattern, vs).check(g) == want, (g.adj, pattern, vs)
                hits[pattern] += want
    assert all(hits.values()), hits
    assert not PatternWitness("P5", (0, 1, 2, 3, 3)).check(path_graph(5))
    assert not PatternWitness("P5", (0, 1, 2, 3)).check(path_graph(5))
    assert not PatternWitness("K3", (0, 1, 2)).check(complete_graph(3))  # no clique form


@given(st.integers(0, 10**6), st.integers(4, 11), st.floats(0.1, 0.9))
@settings(max_examples=150, deadline=None)
def test_walker_matches_the_reference_walks(seed, n, p):
    g = random_graph(n, p, seed)
    full = g.full_mask()
    assert induced_p4(g, full) == reference_find_p4(g, full)
    for pattern, find in REFERENCE.items():
        assert induced_p4(g, full, FIFTH[pattern]) == find(g)
    # inside a mask: the reference P4 walk takes the mask, the other three
    # run on the induced copy, whose sorted ids keep the lexicographic order
    mask = random.Random(seed).getrandbits(n)
    assert induced_p4(g, mask) == reference_find_p4(g, mask)
    sub, ids = induced_subgraph(g, bits(mask))
    for pattern, find in REFERENCE.items():
        hit = find(sub)
        assert induced_p4(g, mask, FIFTH[pattern]) == (hit and tuple(ids[v] for v in hit))


def test_the_walk_holds_no_table_of_rows():
    # 20,000 isolated vertices: a table of closed neighborhoods, each as
    # long as its vertex's id, takes about 110 MB, and grouping them by
    # closed neighborhood for the freeness walks about 25 MB
    g = empty_graph(20000)
    tracemalloc.start()
    try:
        assert find_induced(g, "P5") is None and induced_p4(g, g.full_mask()) is None
        assert is_p5_gem_free(g) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
