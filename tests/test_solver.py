import hashlib
import random
import sys
import time
from collections import Counter
from itertools import product

import pytest

from pentagem import reductions, solver
from pentagem.classify import ClassLabel
from pentagem.coloring import Coloring, verify_coloring
from pentagem.errors import (CliqueBoundError, DegreeRangeError,
                             ForbiddenPatternError, InternalInconsistencyError,
                             PreconditionError)
from pentagem.graph import (build_graph, complete_graph, component_masks, cycle_graph,
                            disjoint_union, empty_graph, join, mask_of, path_graph)
from pentagem.graphio import parse_edgelist, parse_graph, write_edgelist
from pentagem.instances import (GenSpec, gallery_g1, gallery_g2,
                                gen_class_instance, gen_target_delta)
from pentagem.patterns import PatternWitness, clique_number, find_induced
from pentagem.reductions import bacso_tuza_bound, find_copycat, find_d1_catalog
from pentagem.solver import color8, replay_trace, solve
from pentagem.structure import TEMPLATES
from pentagem.trace import ReductionTrace, dumps_trace, fingerprint, loads_trace

from helpers import (benchmark_inputs, c5_blowup, caterpillar, cocktail_party, delta9_members,
                     delta_family, gate_pins, k9_with_ears, non_clique_core, padded_member,
                     prism_cores, reference_delta_reduce)
from irreducible_enum import _members


def test_color8_c5_uses_three():
    col, _ = color8(cycle_graph(5))
    assert verify_coloring(cycle_graph(5), col)
    assert len(set(col.colors.values())) == 3


def test_color8_gallery_g2_9():
    g = gallery_g2(9)
    col, _ = color8(g)
    assert col.k == 8 and verify_coloring(g, col)


def test_color8_random_class_member():
    spec = gen_target_delta("G6", 9, seed=5)
    g, _ = gen_class_instance(spec)
    col, _ = color8(g)
    assert col.k == 8 and verify_coloring(g, col)


def test_color8_rejects_degree_10():
    # complete split graph: (P5, gem)-free with maximum degree 10
    with pytest.raises(DegreeRangeError):
        color8(join(complete_graph(7), empty_graph(4)))


@pytest.mark.parametrize("leaves", [10, 16])
def test_the_base_case_refuses_a_degree_its_planes_do_not_hold(leaves):
    # the centre of a 20-leaf star keeps `leaves` of them in the mask; four
    # bit planes would read degree 16 as 0, a vertex the greedy rule takes
    star = join(empty_graph(1), empty_graph(20))
    with pytest.raises(DegreeRangeError, match="base-case engine expects maximum degree <= 9"):
        solver._color8(star, (1 << leaves + 1) - 1, [])
    events = []
    # with 9 leaves kept, leaf 1 is peeled and the centre's degree falls to 8,
    # so the Brooks terminal colors the rest before leaf 1 is extended
    assert len(solver._color8(star, (1 << 10) - 1, events)) == 10
    assert [e.kind for e in events] == ["brooks", "low_degree"]


def test_solve_gallery_family():
    for t in (9, 11):
        g = gallery_g2(t)
        col, _ = solve(g)
        assert col.k == t - 1 and verify_coloring(g, col)
        assert len(set(col.colors.values())) <= t - 1


def test_solve_rejects_gallery_g1_on_degree():
    with pytest.raises(DegreeRangeError):
        solve(gallery_g1())


def test_solve_rejects_p5_with_witness():
    with pytest.raises(ForbiddenPatternError) as err:
        solve(path_graph(5))
    assert err.value.witness.pattern == "P5"


def test_solve_colors_k9_with_ears_through_degree_reduction():
    # outside the class (it has a gem), but a maximal independent set meets
    # its K9, so degree reduction goes on and the base case colors the rest
    g = k9_with_ears()
    assert find_induced(g, "GEM") is not None
    col, trace = solve(g)
    assert col.k == 9 and verify_coloring(g, col)
    assert [e.kind for e in trace.events].count("delta_set") == 1
    assert replay_trace(g, loads_trace(dumps_trace(trace))).colors == col.colors


def test_solve_reraises_an_inconsistency_on_a_free_graph(monkeypatch):
    def fruitless(*args):
        raise InternalInconsistencyError("no set found")
    monkeypatch.setattr(solver, "delta_reduce", fruitless)
    g = join(complete_graph(8), empty_graph(4))  # a cograph with Delta 11
    with pytest.raises(InternalInconsistencyError, match="no set found"):
        solve(g)


def test_the_perfect_branch_colors_through_the_step_replay_runs():
    # a small core handed over directly; the prism cores reach it through solve
    g = join(complete_graph(3), empty_graph(4))  # a cograph: no C5, so Perfect
    events = []
    colors = solver._color_core(g, g, range(g.n), events)
    assert [(e.kind, e.data) for e in events] == [("oracle", {"vs": tuple(range(7)), "k": 4})]
    assert verify_coloring(g, Coloring(colors, 4))
    text = dumps_trace(ReductionTrace(events, 4, *fingerprint(g)))
    assert replay_trace(g, loads_trace(text)).colors == colors


def test_a_perfect_core_over_the_oracle_cap_is_an_internal_inconsistency():
    # 31 vertices is more than a connected P5-free graph with Delta = 9 has
    g = join(complete_graph(3), empty_graph(28))
    with pytest.raises(InternalInconsistencyError, match="Bacso-Tuza"):
        solver._color_core(g, g, range(g.n), [])


def test_a_non_clique_bag_at_classify_is_an_inconsistency(monkeypatch):
    monkeypatch.setattr(solver, "find_copycat", lambda g: None)
    with pytest.raises(InternalInconsistencyError,
                       match="no copycat pair left, every reducible bag must be a clique"):
        solve(non_clique_core())


def test_the_perfect_branch_is_reached_end_to_end():
    for g in prism_cores():
        assert (g.n, g.max_degree(), g.min_degree(), clique_number(g)[0]) == (14, 9, 8, 7)
        assert [find_induced(g, p) for p in ("P5", "GEM", "C5")] == [None] * 3
        assert find_copycat(g) is None and find_d1_catalog(g) is None
        col, trace = solve(g)
        assert [(e.kind, e.data) for e in trace.events] == [
            ("oracle", {"vs": tuple(range(14)), "k": 7})]
        assert trace.palette == 8 and verify_coloring(g, col)
        assert replay_trace(g, loads_trace(dumps_trace(trace))).colors == col.colors


def test_no_irreducible_core_is_labelled_h():
    # In an irreducible core every degree is 8 or 9, and A1..A5 and each A7
    # component are modules, so cliques (the twin lemma).  An A7 clique of c
    # vertices sees s of A6's k vertices: its vertices have degree c - 1 + s,
    # and each of those s has at least c plus the anchor's body bags as
    # neighbours.  Over every size vector no (c, s) fits.
    t = TEMPLATES["H"]
    pend, anchor = t.nodes.index(t.pendant), t.nodes.index(t.anchor)
    cliques = [i for i in range(t.graph.n) if i not in (pend, anchor)]
    closed = [({i} | set(t.graph.neighbors(i))) - {pend} for i in cliques]
    beside_anchor = set(t.graph.neighbors(anchor)) - {pend}
    windows = 0
    for sizes in product(range(1, 9), repeat=len(cliques) + 1):
        size = dict(zip(cliques + [anchor], sizes))
        if not all(9 <= sum(size[j] for j in c) <= 10 for c in closed):
            continue
        windows += 1
        k, seen = size[anchor], sum(size[j] for j in beside_anchor)
        assert not [(c, s) for s in range(1, k + 1) for c in range(1, 11)
                    if 8 <= c - 1 + s <= 9 and seen + c <= 9], size
    assert windows == 21


def test_a_core_labelled_h_is_an_internal_inconsistency(monkeypatch):
    monkeypatch.setattr(solver, "classify", lambda g: ClassLabel("H", {}))
    core2 = GenSpec("G2", {"Q1": 3, "Q2": 3, "Q3": 3, "Q4": 3, "Q5": 3, "Q6": 1})
    with pytest.raises(InternalInconsistencyError,
                       match="cannot be labelled H: .* 21 size vectors"):
        solve(gen_class_instance(core2)[0])


def test_a_1100_vertex_clique_is_reported_with_its_witness():
    # the clique searches keep their own stack, so no recursion limit is met
    with pytest.raises(CliqueBoundError) as err:
        solve(complete_graph(1100))
    assert str(err.value) == "clique number 1100 exceeds 1098"
    assert err.value.witness == tuple(range(1100))


def test_a_cocktail_party_beside_a_larger_clique_is_rejected_quickly():
    # (P5, gem)-free with Delta 39 and omega 40; the witness search passes
    # the 2^20 maximum cliques of the party by its coloring cut
    g = disjoint_union(cocktail_party(20), complete_graph(40))
    start = time.perf_counter()
    with pytest.raises(CliqueBoundError) as err:
        solve(g)
    assert time.perf_counter() - start < 2.0
    assert str(err.value) == "clique number 40 exceeds 38"
    assert err.value.witness == tuple(range(40, 80))


def test_solve_rejects_clique_at_delta():
    with pytest.raises(CliqueBoundError):
        solve(complete_graph(10))


# (solve's error, color8's error): class, message, and the clique witness
# (the lex-least maximum clique) or the pattern witness
GATE_PINS = {
    "K10": ((CliqueBoundError, "clique number 10 exceeds 8", tuple(range(10))),) * 2,
    "K9 with a pendant": (
        (CliqueBoundError, "clique number 9 exceeds 8", tuple(range(1, 10))),) * 2,
    "2K1 joined to K10": (
        (CliqueBoundError, "clique number 11 exceeds 10", (0, *range(2, 12))),
        (DegreeRangeError, "maximum degree 11 exceeds 9", None)),
    "K9 with a pendant beside a gem": (
        (ForbiddenPatternError, "graph contains an induced GEM (11, 12, 13, 14, 10)",
         ("GEM", (11, 12, 13, 14, 10))),) * 2,
}


@pytest.mark.parametrize("name", sorted(GATE_PINS))
def test_the_gate_reports_the_pinned_error_and_witness(name):
    g = gate_pins()[name]
    for run, (cls, message, witness) in zip((solve, color8), GATE_PINS[name]):
        with pytest.raises(PreconditionError) as err:
            run(g)
        got = getattr(err.value, "witness", None)
        if isinstance(got, PatternWitness):
            got = (got.pattern, got.vertices)
        assert (type(err.value), str(err.value), got) == (cls, message, witness), run
        if cls is CliqueBoundError:
            assert clique_number(g) == (len(witness), witness)


def test_the_clique_bound_is_tested_only_once_the_degree_test_passes(monkeypatch):
    # once every input paid for the clique test, even one whose degree the
    # gate rejects: about 5 s of 17 on an empty 258,047-vertex graph
    def refused(*args):
        raise AssertionError("the clique bound was tested on a degree the gate rejects")

    monkeypatch.setattr(solver, "has_clique", refused)
    star = build_graph(11, [(0, v) for v in range(1, 11)])
    for run, g, message in ((solve, cycle_graph(5), "maximum degree 2 is below 9"),
                            (solve, empty_graph(3), "maximum degree 0 is below 9"),
                            (color8, star, "maximum degree 10 exceeds 9")):
        with pytest.raises(DegreeRangeError, match=message):
            run(g)


def test_solve_runs_no_exact_clique_search_on_in_class_inputs(monkeypatch):
    # the gate answers with has_clique, each degree-reduction level with its
    # clique enumeration; the exact clique number only words a failure
    from pentagem import patterns

    inputs = delta9_members(506) + [_copies(gallery_g2(10), 4)]
    original = patterns.clique_number
    calls = Counter()

    def tallied(*args):
        code = sys._getframe(1).f_code
        calls[(code.co_filename.rsplit("/", 1)[-1], code.co_name)] += 1
        return original(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("pentagem") and getattr(mod, "clique_number", None) is original:
            monkeypatch.setattr(mod, "clique_number", tallied)
    for g in inputs:
        col, _ = solve(g)
        assert verify_coloring(g, col)
    assert calls == {}
    with pytest.raises(CliqueBoundError):
        solve(complete_graph(10))
    assert calls == {("solver.py", "_structural_gate"): 1}


def test_solve_disconnected_components():
    spec = gen_target_delta("G2", 9, seed=2)
    g1, _ = gen_class_instance(spec)
    g = disjoint_union(g1, cycle_graph(5))
    col, trace = solve(g)
    assert col.k == 8 and verify_coloring(g, col)
    rep = replay_trace(g, trace)
    assert rep.colors == col.colors


def test_solve_perfect_complete_split():
    # complete split graphs are cographs: no induced C5, exact path runs
    g = join(complete_graph(8), empty_graph(4))
    assert g.max_degree() == 11
    col, _ = solve(g)
    assert verify_coloring(g, col) and col.k == 10
    assert len(set(col.colors.values())) == 9


def test_the_two_irreducible_cores_solve_and_replay():
    core2 = GenSpec("G2", {"Q1": 3, "Q2": 3, "Q3": 3, "Q4": 3, "Q5": 3, "Q6": 1})
    core10 = GenSpec("G10", {f"Q{i}": 2 for i in range(1, 10)})
    for spec in (core2, core10):
        g, _ = gen_class_instance(spec)
        col, trace = solve(g)
        assert col.k == 8 and verify_coloring(g, col)
        kinds = [e.kind for e in trace.events]
        assert "lemma1" in kinds
        rep = replay_trace(g, trace)
        assert rep.colors == col.colors and rep.k == col.k


def test_trace_document_round_trip():
    g = gallery_g2(10)
    col, trace = solve(g)
    text = dumps_trace(trace)
    back = loads_trace(text)
    assert back.events == trace.events
    assert (back.palette, back.n, back.m) == (trace.palette, trace.n, trace.m)
    rep = replay_trace(g, back)
    assert rep.colors == col.colors


def _copies(g, k):
    out = g
    for _ in range(k - 1):
        out = disjoint_union(out, g)
    return out


@pytest.mark.parametrize("k", [8, 16])
def test_solve_gallery_unions_color_each_copy_alike(k):
    one = gallery_g2(10)
    single, _ = solve(one)
    g = _copies(one, k)
    col, trace = solve(g)
    assert col.k == 9 and verify_coloring(g, col)
    assert replay_trace(g, trace).colors == col.colors
    for i in range(k):
        assert {v: col.colors[i * one.n + v] for v in range(one.n)} == single.colors


# sha256 over the solve traces below, recorded when degree reduction began
# peeling maximal, not maximum, hitting sets
DELTA_TRACES_SHA256 = "5662d008f47baa498948e80d61b36b37443ddae62e7e67df62cc4c87823f2288"


def test_degree_reduction_traces_are_pinned():
    unions = [_copies(gallery_g2(10), k) for k in range(2, 7)]
    digest = hashlib.sha256()
    for g in delta_family() + unions:
        digest.update(dumps_trace(solve(g)[1]).encode())
    assert digest.hexdigest() == DELTA_TRACES_SHA256


# sha256 over the solve traces of every Delta = 9 clique expansion with
# minimum degree 8 and clique number at most 8, each in its natural vertex
# order and in one seeded relabelling; recorded while the solver still ran
# the clique-expansion reduction on every classified core
CORE_TRACES_SHA256 = "00908db0f04db71149ab6be46282dc3cda566e15c537357de7eb2c24033eea65"


def _classified_core_inputs():
    """The 61 hosts above, each in its natural order and then relabelled."""
    hosts = [g for tid in TEMPLATES for _, g, _ in _members(tid, 8)
             if clique_number(g)[0] <= 8]
    assert len(hosts) == 61
    rng = random.Random(2006)
    for g in hosts:
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield g
        yield build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_classified_core_traces_are_pinned():
    digest = hashlib.sha256()
    lemma1 = 0
    for h in _classified_core_inputs():
        trace = solve(h)[1]
        lemma1 += any(e.kind == "lemma1" for e in trace.events)
        digest.update(dumps_trace(trace).encode())
    assert lemma1 > 0
    assert digest.hexdigest() == CORE_TRACES_SHA256


# sha256 over the colors, in the order solve assigned them, of the same 122
# solves; a d1_extend line records only w and k, so the trace pin above
# cannot see a changed list coloring.  Recorded before the list-coloring
# search kept free-color masks in place and memoized failed states.
CORE_COLORS_SHA256 = "4e65e132680fc6652a2f9e51bcd472eded6805883f123e679f2c851b4351fbdd"


def test_classified_core_colors_are_pinned():
    digest = hashlib.sha256()
    for h in _classified_core_inputs():
        digest.update(repr(list(solve(h)[0].colors.items())).encode())
    assert digest.hexdigest() == CORE_COLORS_SHA256


# sha256 over the solve traces and colors of the scale inputs (caterpillars
# with n = 400, 800 and 1600, 64 copies of gallery_g2(9), and the first 32
# criterion-2 graphs), each in its natural vertex order and in one seeded
# relabelling; recorded while the base case still recursed once per peel
SCALE_TRACES_SHA256 = "f487d9dc6e0f8ec8fb01565152895dcf3b2ed42408958e1a4439f1b4327ce245"


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _union(graphs):
    out = graphs[0]
    for g in graphs[1:]:
        out = disjoint_union(out, g)
    return out


def test_scale_traces_are_pinned():
    inputs = [caterpillar(s) for s in (50, 100, 200)]
    inputs += [_copies(gallery_g2(9), 64), _union(delta9_members(32))]
    rng = random.Random(31)
    digest = hashlib.sha256()
    for g in inputs:
        for h in (g, _relabelled(g, rng)):
            col, trace = solve(h)
            digest.update(dumps_trace(trace).encode())
            digest.update(repr(sorted(col.colors.items())).encode())
    assert digest.hexdigest() == SCALE_TRACES_SHA256


# sha256 over the solve traces and the colors, in the order solve assigned
# them, of the 506 criterion-2 graphs, the caterpillars with spines of 50,
# 100 and 200, and 64 copies of gallery_g2(9): inputs that end in greedy and
# Brooks colorings.  Recorded while first-fit still walked each vertex's
# neighbors and each Brooks step counted the maximum degree twice
TERMINAL_TRACES_SHA256 = "39c55a29697fbef19a8780f01aefb03c6e9760347c1680cf004db9f611cb3f25"


def test_terminal_traces_are_pinned():
    inputs = delta9_members(506) + [caterpillar(s) for s in (50, 100, 200)]
    inputs.append(_copies(gallery_g2(9), 64))
    digest = hashlib.sha256()
    kinds = Counter()
    for g in inputs:
        col, trace = solve(g)
        kinds.update(e.kind for e in trace.events)
        digest.update(dumps_trace(trace).encode())
        digest.update(repr(list(col.colors.items())).encode())
    assert kinds["greedy"] and kinds["brooks"] and kinds["low_degree"]
    assert digest.hexdigest() == TERMINAL_TRACES_SHA256


# sha256 per benchmark workload and seed: for each input in workload order,
# parsed from its graph6 text, the solve's trace text and then the repr of
# its colors in the order solve assigned them, both as UTF-8.  Recorded
# while each Brooks apply still split its whole mask into components
WORKLOAD_OUTPUTS_SHA256 = {
    ("sweep9", 7): "6858b559c376fc3a0e444bac75ec34812fb47e2ebd2544890d0ed79a63fd59b7",
    ("core9", 7): "1f983de7f1e8685d0175c7e6b20b281d5a0c9043de1b71544022f619602400e8",
    ("delta", 7): "0a1a3fc74cf780d295a067f71500def333047c186ae8e33f32848f2cfa390a50",
    ("scale", 7): "c10a5df33affb576b24f2dc0967a75bf20805369e07bd1691bd41d804ef31b31",
    ("sweep9", 11): "038f2bd9a732d23b77b96ed5e07a7b4eff29d36046e5e7871d2b1e140a401547",
    ("core9", 11): "32f07d2b2821ea34f035a9cd67784c863c283fa8eaa21858aaafa98c74fd96b6",
    ("delta", 11): "f3db9c6854d4771a4b5d243ab2c1c81651fe38faa28397f922ab4d4accd2658c",
    ("scale", 11): "1dcb67805b728394bf02c55da1fa94e5bbef4f9dd77117b38e1a351022cb4a1b",
}


@pytest.mark.parametrize("workload, seed", list(WORKLOAD_OUTPUTS_SHA256))
def test_benchmark_workload_outputs_are_pinned(workload, seed):
    digest = hashlib.sha256()
    for inp in benchmark_inputs(workload, seed):
        col, trace = solve(parse_graph(inp.g6, "graph6"))
        digest.update(dumps_trace(trace).encode())
        digest.update(repr(list(col.colors.items())).encode())
    assert digest.hexdigest() == WORKLOAD_OUTPUTS_SHA256[workload, seed]


# sha256 over the solve trace of padded_member() and then the repr of its
# colors in the order solve assigned them, recorded while each one-vertex
# greedy line still ran the general first-fit
PADDED_MEMBER_SHA256 = "004cbc679416687c28cbac76107392203d4199c8bfa6a3b898281040188971fa"


def test_each_isolated_vertex_takes_color_1_from_its_own_greedy_line():
    g = padded_member()
    col, trace = solve(g)
    text = dumps_trace(trace)
    assert list(replay_trace(g, loads_trace(text)).colors.items()) == list(col.colors.items())
    isolated = [v for v in range(g.n) if not g.adj[v]]
    assert len(isolated) == 300 and isolated[0] == 0 and isolated[-1] == g.n - 1
    greedy = [e.data["vs"] for e in trace.events if e.kind == "greedy"]
    for v in isolated:
        assert [vs for vs in greedy if v in vs] == [(v,)] and col.colors[v] == 1
    digest = hashlib.sha256(text.encode())
    digest.update(repr(list(col.colors.items())).encode())
    assert digest.hexdigest() == PADDED_MEMBER_SHA256


def test_a_25600_vertex_caterpillar_peels_within_the_default_recursion_limit():
    g = parse_edgelist(write_edgelist(caterpillar(3200)))
    assert (g.n, g.max_degree()) == (25600, 9)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        col, trace = solve(g)
        rep = replay_trace(g, loads_trace(dumps_trace(trace)))
    finally:
        sys.setrecursionlimit(limit)
    assert col.k == 8 and verify_coloring(g, col)
    assert rep.colors == col.colors
    assert sum(e.kind == "low_degree" for e in trace.events) > 3200


def _solved(graphs):
    out = []
    for g in graphs:
        col, trace = solve(g)
        out.append((dumps_trace(trace), list(col.colors.items())))
    return out


def test_degree_reduction_matches_the_recursive_reference(monkeypatch):
    rng = random.Random(16)
    graphs = [h for g in delta_family() for h in (g, _relabelled(g, rng), _relabelled(g, rng))]
    graphs += [_copies(gallery_g2(10), k) for k in range(2, 7)]
    graphs += [c5_blowup(a) for a in range(4, 21)]
    graphs += [cocktail_party(k) for k in range(6, 13)]
    got = _solved(graphs)
    monkeypatch.setattr(solver, "delta_reduce", lambda host, mask, delta, color_base, trace:
                        reference_delta_reduce(host, mask, color_base, trace))
    assert _solved(graphs) == got


@pytest.mark.parametrize("make, size", [(c5_blowup, a) for a in (4, 10, 20)]
                         + [(cocktail_party, k) for k in range(8, 15)])
def test_large_degree_inputs_solve_and_replay(make, size):
    g = make(size)
    col, trace = solve(g)
    assert col.k == g.max_degree() - 1 and verify_coloring(g, col)
    assert replay_trace(g, loads_trace(dumps_trace(trace))).colors == col.colors


def _depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_degree_reduction_runs_in_a_loop_on_the_host(monkeypatch):
    # C5[K_40] goes down 78 levels, tight ones with 80-cliques among them:
    # one frame per level, or per search branch, would pass this limit
    from pentagem import patterns, strategies

    g = c5_blowup(40)

    def copied(*args):
        raise AssertionError("degree reduction built an induced copy")

    # reductions imports no induced_subgraph, so only these could call one
    for mod in (solver, strategies):
        monkeypatch.setattr(mod, "induced_subgraph", copied)
    # the gate's Delta-clique test is one clique search; each level reads
    # its clique number and tightness off one enumeration per component
    original, searches = patterns._maximal_cliques, []

    def counted(*args):
        searches.append(args[1:])
        return original(*args)

    for mod in (patterns, reductions):
        monkeypatch.setattr(mod, "_maximal_cliques", counted)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 60)
    try:
        col, trace = solve(g)
    finally:
        sys.setrecursionlimit(limit)
    assert col.k == 118 and verify_coloring(g, col)
    levels = [e.data for e in reversed(trace.events) if e.kind == "delta_set"]
    mask, expected = g.full_mask(), [(g.full_mask(), 119)]
    for level in levels:
        expected += [(comp, level["color"]) for comp in component_masks(g.adj, mask)]
        mask &= ~mask_of(level["i_set"])
    assert searches == expected and len(levels) == 78
    assert replay_trace(g, loads_trace(dumps_trace(trace))).colors == col.colors


@pytest.mark.parametrize("spine", [50, 200])
def test_a_degree_10_caterpillar_over_the_bound_reports_its_p5(spine):
    # outside the class, and once a RecursionError (spine 200) or a
    # search of seconds (spine 50); its one component is over B(10) = 36
    g = caterpillar(spine, leaves=8)
    assert g.max_degree() == 10 and g.n > bacso_tuza_bound(10)
    with pytest.raises(InternalInconsistencyError, match="Bacsó-Tuza bound"):
        reductions.delta_reduce(g, g.full_mask(), 10, None, None)
    start = time.perf_counter()
    with pytest.raises(ForbiddenPatternError) as err:
        solve(g)
    assert time.perf_counter() - start < 2
    assert err.value.witness.pattern == "P5" and err.value.witness.check(g)


def test_a_degree_10_caterpillar_within_the_bound_still_colors():
    g = caterpillar(4, leaves=8)
    assert (g.n, g.max_degree()) == (36, 10) and find_induced(g, "P5") is not None
    col, trace = solve(g)
    assert col.k == 9 and verify_coloring(g, col)
    assert replay_trace(g, trace).colors == col.colors


def test_replay_rejects_wrong_graph():
    g = gallery_g2(10)
    _, trace = solve(g)
    with pytest.raises(PreconditionError):
        replay_trace(gallery_g2(11), trace)


def test_solve_mixed_modes_many_seeds():
    for seed in (1, 4, 9):
        for cid in ("G3", "G7", "H"):
            for mode in ("clique", "cograph"):
                spec = gen_target_delta(cid, 9, seed=seed, mode=mode)
                g, _ = gen_class_instance(spec)
                col, trace = solve(g)
                assert col.k == 8 and verify_coloring(g, col)
                rep = replay_trace(g, trace)
                assert rep.colors == col.colors


def test_the_greedy_and_brooks_steps_copy_no_subgraph(monkeypatch):
    # tally every induced_subgraph call by its caller and by the greedy or
    # brooks step being applied when it was made, in solve and in replay
    import pentagem
    from pentagem import graph
    from pentagem.trace import STEPS

    original = graph.induced_subgraph
    calls = Counter()
    applied = Counter()
    active = []

    def tallied(*args):
        code = sys._getframe(1).f_code
        calls[(active[-1] if active else None, code.co_filename.rsplit("/", 1)[-1],
               code.co_name)] += 1
        return original(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("pentagem") and getattr(mod, "induced_subgraph", None) is original:
            monkeypatch.setattr(mod, "induced_subgraph", tallied)
    for kind in ("greedy", "brooks"):
        def apply(g, d, colors, kind=kind, inner=STEPS[kind].apply):
            applied[kind] += 1
            active.append(kind)
            try:
                inner(g, d, colors)
            finally:
                active.pop()
        monkeypatch.setattr(STEPS[kind], "apply", apply)

    for g in (_copies(gallery_g2(9), 16), caterpillar(50)):
        col, trace = solve(g)
        assert replay_trace(g, loads_trace(dumps_trace(trace))).colors == col.colors
    assert applied["greedy"] and applied["brooks"], applied
    assert graph.induced_subgraph is tallied and pentagem.induced_subgraph is tallied
    from_terminals = {key: n for key, n in calls.items()
                      if key[0] is not None or "brooks" in key[2]}
    assert from_terminals == {}, calls
