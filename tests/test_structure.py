import hashlib
import inspect
import random
import sys
import tracemalloc
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagem import cographs, patterns, reductions, structure
from pentagem.cographs import cograph_coloring_with_palette
from pentagem.coloring import Coloring, verify_coloring
from pentagem.errors import PentagemError, PreconditionError
from pentagem.graph import (bits, build_graph, complement, complete_graph,
                            component_masks, connected_components, cycle_graph,
                            induced_subgraph, is_connected, join, mask_of, path_graph,
                            true_twin_classes)
from pentagem.graphio import parse_graph
from pentagem.instances import GenSpec, gen_class_instance, gen_target_delta
from pentagem.oracle import exact_chromatic
from pentagem.patterns import clique_number, find_induced, induced_p4, is_p5_gem_free
from pentagem.reductions import copycat_extend, find_copycat
from pentagem.structure import (ANTI, CLASS_ORDER, TEMPLATES, CliqueReduction,
                                check_bag_partition, clique_reduce, lift_coloring,
                                match_expansion, maximal_modules)

from helpers import (_induces, benchmark_inputs, brute_maximal_proper_modules,
                     c5_blowup, criterion5_members, palette_corpus, random_graph,
                     reference_find_p4, reference_match_expansion,
                     reference_maximal_modules, threshold_graph)


def expansion(cid, sizes, a7=(), mode="clique", seed=0):
    return gen_class_instance(GenSpec(cid, sizes, a7, mode, seed))


def g1_sizes(*s):
    return dict(zip(("Q1", "Q2", "Q3", "Q4", "Q5"), s))


# -- templates -----------------------------------------------------------------

def test_templates_are_class_members():
    # every template must itself be (P5, gem)-free and contain an induced C5
    for cid in TEMPLATES:
        t = TEMPLATES[cid]
        assert is_p5_gem_free(t.graph)[0], cid
        assert find_induced(t.graph, "C5") is not None, cid


def test_g8_is_g6_with_q6_and_q8_swapped():
    # so every G8 member is a G6 member, and classification skips G8
    swap = {"Q6": "Q8", "Q8": "Q6"}

    def named_edges(cid, rename=lambda x: x):
        t = TEMPLATES[cid]
        return {frozenset(rename(t.nodes[v]) for v in e) for e in t.graph.edges()}

    assert named_edges("G8") == named_edges("G6", lambda x: swap.get(x, x))
    assert sorted(CLASS_ORDER) == sorted(set(TEMPLATES) - {"G8"})


# -- homogeneous cliques ---------------------------------------------------------

def test_mhc_whole_clique():
    assert true_twin_classes(complete_graph(3).adj, range(3)) == [[0, 1, 2]]


def test_mhc_c5_singletons():
    assert true_twin_classes(cycle_graph(5).adj, range(5)) == [[v] for v in range(5)]


def test_mhc_expansion_with_one_fat_bag():
    g, bags = expansion("G1", g1_sizes(3, 1, 1, 1, 1))
    got = true_twin_classes(g.adj, range(g.n))
    assert list(bags["Q1"]) in got
    assert len(got) == 5
    # definition check on every returned class
    for cls in got:
        assert g.is_clique(cls)
        outside = set(range(g.n)) - set(cls)
        for u in outside:
            hits = [v for v in cls if g.has_edge(u, v)]
            assert hits == [] or len(hits) == len(cls)


# -- matching --------------------------------------------------------------------

def test_match_c5_is_identity_expansion():
    c5 = cycle_graph(5)
    bags = match_expansion(c5, TEMPLATES["G1"], maximal_modules(c5))
    assert bags is not None
    assert sorted(len(b) for b in bags.values()) == [1, 1, 1, 1, 1]
    assert not check_bag_partition(c5, TEMPLATES["G1"], bags)


def test_match_recovers_g2_bags():
    g, truth = expansion("G2", {f"Q{i}": 2 for i in range(1, 7)})
    bags = match_expansion(g, TEMPLATES["G2"], maximal_modules(g))
    assert bags is not None
    assert not check_bag_partition(g, TEMPLATES["G2"], bags)
    # same partition up to template automorphism: compare as set of frozensets
    assert {frozenset(b) for b in bags.values()} == {frozenset(b) for b in truth.values()}


def test_p5_matches_nothing():
    p5 = path_graph(5)
    assert match_expansion(p5, TEMPLATES["G1"], maximal_modules(p5)) is None


@given(st.integers(2, 7), st.lists(st.booleans(), min_size=21, max_size=21))
@settings(max_examples=300, deadline=None)
def test_maximal_modules_are_the_inclusion_maximal_proper_modules(n, coins):
    pairs = list(combinations(range(n), 2))
    g = build_graph(n, [p for p, c in zip(pairs, coins) if c])
    got = {frozenset(m) for m in maximal_modules(g)}
    brute = brute_maximal_proper_modules(g)
    # every returned set is a proper module, so it lies in a maximal one
    assert all(any(m <= b for b in brute) for m in got)
    if all(not a & b for a, b in combinations(brute, 2)):
        assert got == brute


def test_maximal_modules_match_the_greedy_grown_from_every_vertex_on_classify_inputs():
    eligible = 0
    for name in ("sweep9", "core9", "delta", "scale"):
        for inp in benchmark_inputs(name, 7):
            g = parse_graph(inp.g6, "graph6")
            if is_connected(g) and is_p5_gem_free(g)[0] and find_induced(g, "C5"):
                assert maximal_modules(g) == reference_maximal_modules(g), (name, inp.g6)
                eligible += 1
    assert eligible >= 950
    for a in (1, 2, 3, 7, 20):
        g = c5_blowup(a)
        assert maximal_modules(g) == reference_maximal_modules(g) == [
            tuple(range(a * i, a * i + a)) for i in range(5)]


def test_maximal_modules_match_the_greedy_grown_from_every_vertex_on_random_graphs():
    # a quarter are joined to a clique, so their complement is disconnected and
    # most have two universal vertices, which the greedy may split
    co_connected = universal = 0
    for seed in range(2000):
        rng = random.Random(seed)
        g = random_graph(rng.randint(4, 13), rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)), seed)
        if seed % 4 == 0:
            g = join(g, complete_graph(rng.randint(1, 3)))
        assert maximal_modules(g) == reference_maximal_modules(g), (seed, g.adj)
        co_connected += is_connected(complement(g))
        universal += sum(a | 1 << v == g.full_mask() for v, a in enumerate(g.adj)) > 1
    assert co_connected >= 1000 and universal >= 200, (co_connected, universal)
    assert maximal_modules(complete_graph(4)) == [(0, 1, 2), (3,)]


def _split_a6(g, bags, rng):
    """``g`` with each A7 component joined to a random nonempty part of A6
    only, so that A6 need not be one module."""
    a6, a7 = bags["A6"], bags["A7"]
    sub, ids = induced_subgraph(g, a7)
    edges = set(g.edges())
    for comp in component_masks(sub.adj, sub.full_mask()):
        cut = set(a6) - set(rng.sample(a6, rng.randint(1, len(a6))))
        edges -= {(min(x, y), max(x, y)) for x in (ids[v] for v in bits(comp)) for y in cut}
    return build_graph(g.n, sorted(edges))


def _matcher_inputs():
    """Members of all 11 classes in both bag modes at Delta 9 and 10, three
    A6 splits of each H member, and one one-edge change of each member at
    Delta 9."""
    rng = random.Random(5)
    for mode in ("clique", "cograph"):
        for delta in (9, 10):
            for cid in TEMPLATES:
                try:
                    spec = gen_target_delta(cid, delta, seed=11, mode=mode)
                except PentagemError:
                    continue
                g, bags = gen_class_instance(spec)
                yield g
                if cid == "H":
                    yield from (_split_a6(g, bags, rng) for _ in range(3))
                if delta == 9:
                    u, v = sorted(rng.sample(range(g.n), 2))
                    yield build_graph(g.n, sorted(set(g.edges()) ^ {(u, v)}))


def _outcome(match, g, t):
    try:
        return match(g, t)
    except PentagemError as exc:
        return type(exc)


def test_module_matcher_agrees_with_the_clique_level_matcher():
    pairs = split = 0
    for g in _matcher_inputs():
        modules = maximal_modules(g)
        for cid, t in TEMPLATES.items():
            got = match_expansion(g, t, modules)
            assert got == _outcome(reference_match_expansion, g, t), (cid, g.n, g.adj)
            pairs += 1
            if cid == "H" and isinstance(got, dict):
                split += sum(set(m) <= set(got["A6"]) for m in modules) > 1
    assert pairs > 800 and split > 0


def test_checker_flags_bad_partition():
    g, bags = expansion("G1", g1_sizes(2, 1, 1, 1, 1))
    broken = dict(bags)
    broken["Q1"], broken["Q2"] = broken["Q1"][:1], broken["Q2"] + broken["Q1"][1:]
    assert check_bag_partition(g, TEMPLATES["G1"], broken)


def test_ground_truth_bags_pass_checker_for_h():
    g, bags = expansion("H", {"A1": 1, "A2": 2, "A3": 1, "A4": 1, "A5": 2, "A6": 2},
                        a7=(2, 3))
    assert not check_bag_partition(g, TEMPLATES["H"], bags)


def test_checker_words_an_overlap_and_a_gap_in_the_bags():
    c5 = cycle_graph(5)
    bags = {"Q1": (0,), "Q2": (0, 1), "Q3": (2,), "Q4": (3,), "Q5": (4,)}
    assert check_bag_partition(c5, TEMPLATES["G1"], bags) == ["bag Q2 overlaps another bag"]
    # a sixth vertex hangs off Q5, and no bag holds it
    g = build_graph(6, sorted(c5.edges()) + [(4, 5)])
    bags = {f"Q{i + 1}": (i,) for i in range(5)}
    assert check_bag_partition(g, TEMPLATES["G1"], bags) == ["bags do not cover the vertex set"]


def _h_expansion():
    """An H member with A7 components of 1 and 3 vertices, each complete
    to A6, and those components."""
    g, bags = expansion("H", {"A1": 1, "A2": 2, "A3": 1, "A4": 1, "A5": 2, "A6": 2},
                        a7=(1, 3))
    comps = [tuple(bits(c)) for c in component_masks(g.adj, mask_of(bags["A7"]))]
    assert sorted(map(len, comps)) == [1, 3]
    assert all(g.has_edge(x, y) for x in bags["A6"] for c in comps for y in c)
    return g, bags, comps


def test_checker_words_a_pendant_component_that_is_not_homogeneous():
    g, bags, comps = _h_expansion()
    comp = max(comps, key=len)
    cut = (bags["A6"][0], comp[0])
    g = build_graph(g.n, [e for e in g.edges() if e != cut])
    assert check_bag_partition(g, TEMPLATES["H"], bags) == [
        f"A7 component {comp} is not homogeneous"]


def test_checker_words_a_pendant_edge_that_leaves_toward_the_solid_bags():
    # a single A7 vertex joined to A1: its component stays homogeneous,
    # and the edge breaks the A1-A7 relation, which reports it: A7 is
    # anticomplete to every bag but the anchor A6
    h = TEMPLATES["H"]
    p = h.nodes.index(h.pendant)
    assert {x for i, x in enumerate(h.nodes) if i != p and h.rel[p][i] != ANTI} == {h.anchor}
    g, bags, comps = _h_expansion()
    (y,) = min(comps, key=len)
    z = bags["A1"][0]
    g = build_graph(g.n, sorted(set(g.edges()) | {(min(y, z), max(y, z))}))
    assert check_bag_partition(g, TEMPLATES["H"], bags) == [
        f"[A1,A7] not anticomplete (vertex {z})"]


def _c5_expansion(q1_edges, q1_size, seed):
    """G1 with a Q1 bag of ``q1_size`` vertices, in a seeded vertex order."""
    k = q1_size
    edges = list(q1_edges) + [(v, k) for v in range(k)] + [(v, k + 3) for v in range(k)]
    edges += [(k, k + 1), (k + 1, k + 2), (k + 2, k + 3)]
    perm = list(range(k + 4))
    random.Random(seed).shuffle(perm)
    g = build_graph(k + 4, [(perm[u], perm[v]) for u, v in edges])
    parts = [range(k)] + [[k + i] for i in range(4)]
    return g, {f"Q{i + 1}": tuple(sorted(perm[v] for v in vs)) for i, vs in enumerate(parts)}


@pytest.mark.parametrize("seed", range(6))
def test_a_bag_holding_a_p4_is_named_by_its_lex_least_p4_in_host_ids(seed):
    # Q1 is a P5: it holds two P4s, each in two directions
    g, bags = _c5_expansion([(0, 1), (1, 2), (2, 3), (3, 4)], 5, seed)
    lex_least = min(vs for vs in permutations(bags["Q1"], 4)
                    if _induces(g, vs, {(0, 1), (1, 2), (2, 3)}))
    # the message the induced copy and its cotree gave
    sub, ids = induced_subgraph(g, bags["Q1"])
    old = tuple(ids[v] for v in reference_find_p4(sub, sub.full_mask()))
    assert old == lex_least
    assert check_bag_partition(g, TEMPLATES["G1"], bags) == [f"bag Q1 induces a P4 {old}"]


def _with_twins(g, seed):
    """``g`` with each vertex blown up into 1 to 3 true or false twins."""
    rng = random.Random(seed)
    copies = [list(range(i, i + rng.randint(1, 3))) for i in range(0, 3 * g.n, 3)]
    edges = [(a, b) for u, v in g.edges() for a in copies[u] for b in copies[v]]
    edges += [(a, b) for c in copies if rng.random() < 0.5
              for i, a in enumerate(c) for b in c[i + 1:]]
    g = build_graph(3 * g.n, edges)
    used = [v for c in copies for v in c]
    return induced_subgraph(g, used)[0]


def test_a_bag_is_walked_on_its_twin_quotient(monkeypatch):
    # the P4 message is the whole bag's lex-least P4, as when the whole bag
    # was walked; a clique bag of C5[K_200] is walked at one vertex
    rng, named = random.Random(82), 0
    for seed in range(150):
        g = _with_twins(random_graph(rng.randint(4, 9), rng.choice((0.3, 0.5, 0.7)), seed), seed)
        owner = [rng.choice((0, 0, 0, 1, 2, 3, 4)) for _ in range(g.n)]
        bags = {f"Q{i + 1}": tuple(v for v in range(g.n) if owner[v] == i) for i in range(5)}
        if not all(bags.values()):
            continue
        want = [f"bag {name} induces a P4 {p4}" for name, vs in bags.items()
                if (p4 := induced_p4(g, mask_of(vs))) is not None]
        got = check_bag_partition(g, TEMPLATES["G1"], bags)
        assert [m for m in got if "induces a P4" in m] == want, seed
        named += len(want)
    assert named >= 30, named
    walked, real = [], structure.induced_p4

    def counted(g, mask, *rest):
        walked.append(mask.bit_count())
        return real(g, mask, *rest)

    monkeypatch.setattr(structure, "induced_p4", counted)
    g = c5_blowup(200)
    bags = {f"Q{i + 1}": tuple(range(200 * i, 200 * i + 200)) for i in range(5)}
    assert not check_bag_partition(g, TEMPLATES["G1"], bags) and walked == [1] * 5


def test_starred_check_wants_each_bag_but_the_anchor_in_clique_form():
    g, bags = _c5_expansion([], 2, 0)
    assert not check_bag_partition(g, TEMPLATES["G1"], bags)
    assert check_bag_partition(g, TEMPLATES["G1"], bags, starred=True) == [
        "bag Q1 is not in clique form"]
    g, bags = _c5_expansion([(0, 1)], 2, 0)
    assert not check_bag_partition(g, TEMPLATES["G1"], bags, starred=True)
    # H: A7 (two cliques, not one) is checked per component, the anchor not
    # at all, so dropping the edge inside A6 changes nothing
    g, bags = expansion("H", {"A1": 1, "A2": 1, "A3": 1, "A4": 1, "A5": 1, "A6": 2},
                        a7=(2, 3))
    a, b = bags["A6"]
    g = build_graph(g.n, [e for e in g.edges() if set(e) != {a, b}])
    assert not check_bag_partition(g, TEMPLATES["H"], bags, starred=True)


# -- the twin lemma -----------------------------------------------------------------

def _reducible_units(g, t, bags):
    """Every bag but the anchor, the pendant bag split into its components."""
    for name in t.nodes:
        if name == t.anchor:
            continue
        sub, ids = induced_subgraph(g, bags[name])
        comps = connected_components(sub) if name == t.pendant else [range(sub.n)]
        for comp in comps:
            yield tuple(ids[v] for v in comp)


def test_a_non_clique_reducible_bag_leaves_a_copycat_pair():
    # a reducible bag is a module, so a non-clique one holds two false-twin
    # cliques (children of the deepest node of its cotree), which form a
    # copycat pair; so the reduction loop never hands classify such a bag
    found = dict.fromkeys(TEMPLATES, 0)
    for cid, t in TEMPLATES.items():
        for target in (9, 10):
            for seed in range(8):
                spec = gen_target_delta(cid, target, seed=seed, mode="cograph")
                g, bags = gen_class_instance(spec)
                if all(g.is_clique(u) for u in _reducible_units(g, t, bags)):
                    continue
                pair = find_copycat(g)
                assert pair is not None, spec
                a, b = pair
                # distinct colors outside A: proper, and any extension that
                # raises no PreconditionError must stay proper
                partial = {v: i + 1 for i, v in enumerate(u for u in range(g.n)
                                                          if u not in a)}
                full = copycat_extend(g, a, b, partial)
                assert verify_coloring(g, Coloring(full, g.n)), spec
                found[cid] += 1
    assert min(found.values()) >= 8, found


# -- clique reduction and lift ----------------------------------------------------

def test_reduce_fixed_point_on_clique_bags():
    g, bags = expansion("G1", g1_sizes(2, 2, 1, 1, 2))
    red = clique_reduce(g, TEMPLATES["G1"], bags)
    assert red.kept == tuple(range(g.n))


def test_reduce_shrinks_2k1_bag():
    # one bag of two nonadjacent twins drops to a single vertex
    g, bags = expansion("G1", g1_sizes(2, 1, 1, 1, 1), mode="cograph", seed=0)
    sub, _ = induced_subgraph(g, bags["Q1"])
    assert sub.m == 0  # seed 0 makes the size-2 bag a union
    red = clique_reduce(g, TEMPLATES["G1"], bags)
    assert len(red.star_bags["Q1"]) == 1
    chi_g, _ = exact_chromatic(g)
    gstar, _ = induced_subgraph(g, red.kept)
    chi_s, _ = exact_chromatic(gstar)
    assert chi_g == chi_s


def test_reduce_preserves_both_invariants_and_lifts():
    done = 0
    for seed in range(60):
        for cid in ("G1", "G2", "H"):
            t = TEMPLATES[cid]
            body = [n for n in t.nodes if n != t.pendant]
            import random
            rng = random.Random(seed * 131 + len(cid))
            sizes = {n: rng.randint(1, 3) for n in body}
            a7 = (rng.randint(1, 3),) if t.pendant else ()
            g, bags = expansion(cid, sizes, a7, mode="cograph", seed=seed)
            if g.n > 16:
                continue
            red = clique_reduce(g, t, bags)
            gstar, ids = induced_subgraph(g, red.kept)
            assert clique_number(g)[0] == clique_number(gstar)[0]
            chi_g, _ = exact_chromatic(g)
            chi_s, star = exact_chromatic(gstar)
            assert chi_g == chi_s
            lifted = lift_coloring(g, red, {ids[i]: c for i, c in star.colors.items()})
            assert verify_coloring(g, Coloring(lifted, chi_s))
            done += 1
    assert done >= 60


def test_lift_is_identity_when_nothing_shrinks():
    g, bags = expansion("G2", {f"Q{i}": 2 for i in range(1, 7)})
    red = clique_reduce(g, TEMPLATES["G2"], bags)
    assert red.kept == tuple(range(g.n))
    chi, col = exact_chromatic(g)
    lifted = lift_coloring(g, red, col.colors)
    assert lifted == col.colors


def test_lift_copies_color_onto_nonadjacent_twins():
    g, bags = expansion("G1", g1_sizes(2, 1, 1, 1, 1), mode="cograph", seed=0)
    sub, _ = induced_subgraph(g, bags["Q1"])
    assert sub.m == 0
    red = clique_reduce(g, TEMPLATES["G1"], bags)
    kept = red.star_bags["Q1"][0]
    gstar, ids = induced_subgraph(g, red.kept)
    chi, col = exact_chromatic(gstar)
    lifted = lift_coloring(g, red, {ids[i]: c for i, c in col.colors.items()})
    a, b = bags["Q1"]
    assert lifted[a] == lifted[b]
    assert verify_coloring(g, Coloring(lifted, chi))


def test_reduce_rejects_invalid_bags():
    g, bags = expansion("G1", g1_sizes(2, 1, 1, 1, 1))
    bad = dict(bags)
    bad["Q1"], bad["Q2"] = bad["Q2"], bad["Q1"]
    with pytest.raises(PreconditionError):
        clique_reduce(g, TEMPLATES["G1"], bad)


# SHA-256 over the items, in order, of acceptance criterion 5's lifted
# colorings and of the palette corpus's colorings, as the recursive cotree
# walker on induced copies gave them
LIFT_PIN = "5aba37647ef3658bdc52b3350c46e98c48ace61f68e93a73ded92aedd31b9f13"


def test_lifted_colorings_match_the_pin():
    out = []
    for g, t, bags in criterion5_members():
        red = clique_reduce(g, t, bags)
        for unit, kept in red.units:  # the witness an induced copy gives
            sub, ids = induced_subgraph(g, unit)
            assert kept == tuple(ids[v] for v in clique_number(sub)[1])
        gstar, ids = induced_subgraph(g, red.kept)
        _, star = exact_chromatic(gstar)
        lifted = lift_coloring(g, red, {ids[i]: c for i, c in star.colors.items()})
        out.append(list(lifted.items()))
    for g, palette, fixed in palette_corpus():
        out.append(list(cograph_coloring_with_palette(g, g.full_mask(), palette, fixed).items()))
    assert len(out) == 120 + 690
    assert hashlib.sha256(repr(out).encode()).hexdigest() == LIFT_PIN


def test_a_lift_takes_no_frame_per_level_of_its_unit():
    # the 900-vertex threshold graph splits 899 levels deep; with 60 frames
    # to spare, a walker that recursed once per level could not finish
    g = threshold_graph(900)
    omega, kept = clique_number(g)
    red = CliqueReduction(kept, {}, ((tuple(range(g.n)), kept),))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        lifted = lift_coloring(g, red, {v: i + 1 for i, v in enumerate(kept)})
    finally:
        sys.setrecursionlimit(limit)
    assert verify_coloring(g, Coloring(lifted, omega)) and len(lifted) == g.n


def test_a_lift_splits_each_unit_once_with_no_clique_search(monkeypatch):
    # clique numbers come from the split itself, so the threshold graph's
    # 450 joins take no clique search, and the unit is split only once
    g = threshold_graph(900)
    omega, kept = clique_number(g)
    red = CliqueReduction(kept, {}, ((tuple(range(g.n)), kept),))

    def searched(*args):
        raise AssertionError("the lift ran a clique search")

    splits = []
    split = cographs.cograph_split

    def counted(g, mask):
        splits.append(mask)
        return split(g, mask)

    for mod in (patterns, reductions):
        monkeypatch.setattr(mod, "_maximal_cliques", searched)
    monkeypatch.setattr(cographs, "cograph_split", counted)
    lifted = lift_coloring(g, red, {v: i + 1 for i, v in enumerate(kept)})
    assert verify_coloring(g, Coloring(lifted, omega)) and splits == [g.full_mask()]


def test_a_lift_of_a_small_unit_on_a_large_host_stays_small():
    # an edge on a 40,000-vertex host: complement rows for the whole host,
    # each as long as its vertex's id, take about 108 MB
    g = build_graph(40000, [(0, 1)])
    red = CliqueReduction((0, 1), {}, (((0, 1), (0, 1)),))
    tracemalloc.start()
    try:
        lifted = lift_coloring(g, red, {0: 2, 1: 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lifted == {0: 2, 1: 1} and peak < 5 * 2 ** 20


def test_a_lift_names_the_p4_of_a_unit_that_is_not_a_cograph():
    g = path_graph(4)
    red = CliqueReduction((1, 2), {}, (((0, 1, 2, 3), (1, 2)),))
    with pytest.raises(PreconditionError, match=r"vertices \(0, 1, 2, 3\) hold an induced P4"):
        lift_coloring(g, red, {1: 1, 2: 2})


def test_a_lift_rejects_kept_vertices_that_are_not_a_clique():
    # the path 0-1-2 lifted from its non-edge 0, 2: once "does not fit the graph"
    red = CliqueReduction((0, 2), {}, (((0, 1, 2), (0, 2)),))
    with pytest.raises(PreconditionError, match="retained vertices are not a clique of their unit"):
        lift_coloring(path_graph(3), red, {0: 1, 2: 2})


def test_a_lift_of_an_empty_unit_colors_nothing():
    # the cotree walker took the maximum of no clique numbers: a traceback
    colors = {0: 1, 1: 2, 2: 1}
    assert lift_coloring(path_graph(3), CliqueReduction((), {}, (((), ()),)), colors) == colors


def test_reduce_shrinks_k2_k1_bag_to_its_edge():
    # second-class member whose first bag is K2 + K1: the reduction keeps
    # the edge and the oracle confirms the chromatic number is unchanged
    from pentagem.graph import build_graph
    base, bags = expansion("G2", {"Q1": 3, "Q2": 1, "Q3": 1, "Q4": 1,
                                  "Q5": 1, "Q6": 1})
    edges = [e for e in base.edges() if e != (0, 2) and e != (1, 2)]
    g = build_graph(base.n, edges)
    sub, _ = induced_subgraph(g, bags["Q1"])
    assert sub.m == 1
    red = clique_reduce(g, TEMPLATES["G2"], bags)
    assert red.star_bags["Q1"] == (0, 1)
    gstar, ids = induced_subgraph(g, red.kept)
    chi_g, _ = exact_chromatic(g)
    chi_s, star = exact_chromatic(gstar)
    assert chi_g == chi_s
    lifted = lift_coloring(g, red, {ids[i]: c for i, c in star.colors.items()})
    assert verify_coloring(g, Coloring(lifted, chi_s))
