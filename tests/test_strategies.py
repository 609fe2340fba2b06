import pytest

from pentagem import strategies
from pentagem.coloring import Coloring, verify_coloring
from pentagem.errors import InternalInconsistencyError, PreconditionError
from pentagem.instances import GenSpec, gen_class_instance
from pentagem.oracle import colorable_with
from pentagem.solver import color8, replay_trace
from pentagem.strategies import (CASE_STRATEGIES, ReducibleFound, Unreachable,
                                 apply_case_strategy, published_plan)
from pentagem.trace import (ReductionTrace, TraceEvent, dumps_trace,
                            fingerprint, loads_trace)


def recurse(sub, ids):
    col, _ = color8(sub)
    return {ids[i]: c for i, c in col.colors.items()}


def run(cid, sizes, a7=()):
    spec = GenSpec(cid, sizes, a7, "clique", 0)
    g, bags = gen_class_instance(spec)
    assert g.max_degree() == 9, "test instance must sit at the degree-9 boundary"
    events = []
    out = apply_case_strategy(g, cid, bags, recurse=recurse, trace=events)
    return g, out, events


def sizes_of(cid, *s):
    from pentagem.structure import TEMPLATES
    t = TEMPLATES[cid]
    body = [n for n in t.nodes if n != t.pendant]
    return dict(zip(body, s))


# -- the hard-coded strategy table is data: freeze it ---------------------------

def test_case_table_is_exactly_the_published_data():
    got = {cid: [(b.name, b.sets, b.order) for b in strat.branches]
           for cid, strat in CASE_STRATEGIES.items()}
    x = lambda *pairs: tuple(pairs)
    assert got["G2"] == [
        ("two_sets", (x(("Q2", 0), ("Q5", 0), ("Q6", 0)), x(("Q2", 1), ("Q5", 1), ("Q6", 1))),
         ("Q1", "Q4", "Q3", "Q5", "Q2", "Q6")),
        ("one_set", (x(("Q2", 0), ("Q5", 0), ("Q6", 0)),),
         ("Q1", "Q5", "Q2", "Q4", "Q3", "Q6")),
    ]
    assert got["G3"] == [
        ("main", (x(("Q2", 0), ("Q5", 0), ("Q6", 0)), x(("Q1", 0), ("Q3", 0), ("Q7", 0))),
         ("Q4", "Q3", "Q5", "Q2", "Q1", "Q6", "Q7"))]
    assert got["G4"] == [
        ("main", (x(("Q1", 0), ("Q5", 0), ("Q7", 0)), x(("Q1", 1), ("Q3", 0), ("Q6", 0))),
         ("Q4", "Q2", "Q1", "Q5", "Q3", "Q7", "Q6"))]
    assert got["G6"] == [
        ("main", (x(("Q3", 0), ("Q5", 0), ("Q7", 0)), x(("Q2", 0), ("Q6", 0), ("Q8", 0))),
         ("Q4", "Q1", "Q8", "Q5", "Q7", "Q6", "Q3", "Q2"))]
    assert got["G7"] == [
        ("main", (x(("Q4", 0), ("Q6", 0), ("Q7", 0)), x(("Q2", 0), ("Q4", 1), ("Q8", 0))),
         ("Q5", "Q3", "Q4", "Q7", "Q2", "Q8", "Q6", "Q1"))]
    assert got["G8"] == [
        ("main", (x(("Q3", 0), ("Q5", 0), ("Q7", 0)), x(("Q2", 0), ("Q6", 0), ("Q8", 0))),
         ("Q4", "Q1", "Q3", "Q2", "Q7", "Q8", "Q6", "Q5"))]
    assert got["G9"] == [
        ("main", (x(("Q3", 0), ("Q5", 0), ("Q7", 0), ("Q9", 0)),
                  x(("Q2", 0), ("Q6", 0), ("Q8", 0), ("Q9", 1))),
         ("Q4", "Q1", "Q3", "Q2", "Q7", "Q8", "Q9", "Q6", "Q5"))]
    assert got["G10"] == [
        ("main", (x(("Q3", 0), ("Q5", 0), ("Q7", 0)), x(("Q2", 0), ("Q6", 0), ("Q8", 0))),
         ("Q9", "Q4", "Q1", "Q3", "Q2", "Q7", "Q8", "Q6", "Q5"))]
    assert got["H"] == [
        ("anchor_two", (x(("A2", 0), ("A5", 0), ("A6", 0)), x(("A2", 1), ("A5", 1), ("A6", 1))),
         ("A1", "A5", "A2", "A4", "A3", "A6", "A7"))]
    assert {cid: strat.copycat for cid, strat in CASE_STRATEGIES.items()} == {
        "G2": (("Q2", "Q6"), ("Q5", "Q6")),
        "G3": (("Q5", "Q6"), ("Q3", "Q7")),
        "G4": (("Q1", "Q5"),),
        "G6": (),
        "G7": (("Q4", "Q7"),),
        "G8": (),
        "G9": (("Q9", "Q5"),),
        "G10": (),
        "H": (),
    }


def test_published_sets_are_independent_on_members():
    for cid, strat in CASE_STRATEGIES.items():
        for branch in strat.branches:
            need = {}
            for s in branch.sets:
                for name, idx in s:
                    need[name] = max(need.get(name, 1), idx + 1)
            from pentagem.structure import TEMPLATES
            t = TEMPLATES[cid]
            body = [n for n in t.nodes if n != t.pendant]
            sizes = {n: max(2, need.get(n, 1)) for n in body}
            a7 = (2,) if t.pendant else ()
            g, bags = gen_class_instance(GenSpec(cid, sizes, a7, "clique", 0))
            sets, order = published_plan(cid, branch.name, bags)
            for s in sets:
                assert g.is_independent(s), (cid, branch.name, s)
            removed = set().union(*map(set, sets))
            assert sorted(order) == sorted(set(range(g.n)) - removed)


# -- branch behavior ---------------------------------------------------------------

def test_g2_two_sets_branch_colors():
    g, out, events = run("G2", sizes_of("G2", 2, 3, 1, 1, 3, 2))
    assert isinstance(out, Coloring) and verify_coloring(g, out)
    assert events[0].data["branch"] == "two_sets"
    assert not events[0].data["fallback"]


def test_g2_one_set_branch_falls_back_on_the_hard_core():
    # the unique irreducible member: the reversed published elimination
    # order meets the bound, so no fallback order is needed
    g, out, events = run("G2", sizes_of("G2", 3, 3, 3, 3, 3, 1))
    assert isinstance(out, Coloring) and verify_coloring(g, out)
    assert events[0].data["branch"] == "one_set"
    assert not events[0].data["fallback"]


def test_g2_copycat_condition_reported():
    g, out, _ = run("G2", sizes_of("G2", 2, 2, 3, 3, 2, 2))
    assert isinstance(out, ReducibleFound)


def test_g2_tail_reported():
    g, out, _ = run("G2", sizes_of("G2", 1, 4, 4, 1, 2, 1))
    assert isinstance(out, ReducibleFound)


def test_g1_reducible_hint():
    g, out, _ = run("G1", sizes_of("G1", 4, 3, 3, 2, 3))
    assert isinstance(out, ReducibleFound)


def test_g1_unreachable_when_neighbor_singleton():
    g, out, _ = run("G1", sizes_of("G1", 4, 1, 4, 1, 5))
    assert isinstance(out, Unreachable)


def test_g5_reports_catalog_configuration():
    g, out, _ = run("G5", sizes_of("G5", 3, 2, 1, 1, 2, 1, 1, 1))
    assert isinstance(out, ReducibleFound)


def test_g10_all_twos_falls_back():
    # an irreducible member: the reversed published elimination order meets
    # the bound, so no fallback order is needed
    g, out, events = run("G10", sizes_of("G10", *([2] * 9)))
    assert isinstance(out, Coloring) and verify_coloring(g, out)
    assert not events[0].data["fallback"]


def test_oracle_fallback_names_its_case_and_branch(monkeypatch):
    # neither the published nor the smallest-last order meets the bound
    monkeypatch.setattr(strategies, "back_degree_profile", lambda *args: 99)
    g, out, events = run("G2", sizes_of("G2", 2, 3, 1, 1, 3, 2))
    assert isinstance(out, Coloring) and verify_coloring(g, out)
    assert [e.kind for e in events] == ["oracle"]
    assert events[0].data["case"] == "G2"
    assert events[0].data["branch"] == "two_sets"
    n, m, hist = fingerprint(g)
    text = dumps_trace(ReductionTrace(events, 8, n, m, hist))
    assert " case=G2 branch=two_sets\n" in text
    back = loads_trace(text)
    assert back.events == events
    assert replay_trace(g, back).colors == out.colors


def test_an_oracle_fallback_over_the_cap_is_an_internal_inconsistency(monkeypatch):
    # a 36-vertex member on the fallback path, called directly: Delta is 23,
    # so neither solve nor apply_case_strategy (which requires Delta = 9)
    # would hand it over; the oracle is not run on it
    monkeypatch.setattr(strategies, "back_degree_profile", lambda *args: 99)
    monkeypatch.setattr(strategies, "run_step", None)
    g, bags = gen_class_instance(GenSpec("G2", sizes_of("G2", 6, 6, 6, 6, 6, 6)))
    with pytest.raises(InternalInconsistencyError, match="36-vertex core"):
        strategies._lemma1(g, "G2", "two_sets", bags, [])


def test_oracle_line_without_a_case_is_unchanged():
    plain = TraceEvent("oracle", {"vs": (0, 1, 2), "k": 3})
    text = dumps_trace(ReductionTrace([plain], 3, 3, 3, ((2, 3),)))
    assert "\ncolor oracle vs=0,1,2 k=3\n" in text
    assert loads_trace(text).events == [plain]


def test_h_clique_copy_branch():
    g, out, events = run("H", sizes_of("H", 2, 5, 1, 1, 1, 2), a7=(2,))
    assert isinstance(out, Coloring) and verify_coloring(g, out)
    assert events[-1].kind == "clique_copy"


def test_h_anchor_branch():
    g, out, events = run("H", sizes_of("H", 2, 3, 1, 1, 3, 2), a7=(2,))
    assert isinstance(out, Coloring) and verify_coloring(g, out)
    assert events[0].kind == "lemma1" and events[0].data["branch"] == "anchor_two"


def test_h_pendant_peel():
    g, out, events = run("H", sizes_of("H", 2, 3, 1, 1, 3, 1), a7=(2, 3))
    assert isinstance(out, Coloring) and verify_coloring(g, out)
    assert events[-1].kind == "a7_peel"


def oracle_recurse(events):
    """A recursion callback that logs each subproblem as one oracle event."""
    def rec(sub, ids):
        assign = colorable_with(sub, 8)
        events.append(TraceEvent("oracle", {"vs": tuple(ids), "k": 8}))
        return {ids[i]: c for i, c in assign.items()}
    return rec


@pytest.mark.parametrize("sizes, a7, last", [
    ((2, 5, 1, 1, 1, 2), (2,), "clique_copy"),
    ((2, 3, 1, 1, 3, 1), (2, 3), "a7_peel"),
])
def test_h_extensions_replay_from_text(sizes, a7, last):
    g, bags = gen_class_instance(GenSpec("H", sizes_of("H", *sizes), a7, "clique", 0))
    events = []
    out = apply_case_strategy(g, "H", bags, recurse=oracle_recurse(events), trace=events)
    assert [e.kind for e in events] == ["oracle", last]
    n, m, hist = fingerprint(g)
    text = dumps_trace(ReductionTrace(events, 8, n, m, hist))
    assert replay_trace(g, loads_trace(text)).colors == out.colors


def test_strategy_rejects_wrong_degree():
    g, bags = gen_class_instance(GenSpec("G2", sizes_of("G2", 1, 1, 1, 1, 1, 1)))
    with pytest.raises(PreconditionError):
        apply_case_strategy(g, "G2", bags)


def test_strategy_rejects_inconsistent_bags():
    spec = GenSpec("G2", sizes_of("G2", 2, 3, 1, 1, 3, 2), (), "clique", 0)
    g, bags = gen_class_instance(spec)
    bad = dict(bags)
    bad["Q1"], bad["Q3"] = bad["Q3"], bad["Q1"]
    with pytest.raises(PreconditionError):
        apply_case_strategy(g, "G2", bad)


CASE_RUNS = [
    ("G2", (2, 3, 1, 1, 3, 2), "two_sets"),
    ("G3", (2, 2, 3, 2, 3, 1, 1), "main"),
    ("G4", (3, 2, 2, 2, 1, 2, 2), "main"),
    ("G6", (2, 2, 2, 2, 2, 2, 2, 2), "main"),
    ("G7", (2, 2, 2, 2, 2, 2, 1, 2), "main"),
    ("G8", (2, 2, 2, 2, 2, 2, 2, 2), "main"),
    ("G9", (1, 2, 1, 2, 1, 2, 2, 1, 2), "main"),
    ("G10", (2, 2, 2, 2, 2, 2, 2, 2, 2), "main"),
]


@pytest.mark.parametrize("cid,sizes,branch", CASE_RUNS)
def test_every_case_plan_colors_a_degree9_member(cid, sizes, branch):
    g, out, events = run(cid, sizes_of(cid, *sizes))
    assert isinstance(out, Coloring), (cid, out)
    assert verify_coloring(g, out) and out.k == 8
    assert events[0].kind == "lemma1" and events[0].data["branch"] == branch
    assert events[0].data["case"] == cid
    assert not events[0].data["fallback"]


def test_published_plan_colors_in_reverse_elimination_order():
    g, bags = gen_class_instance(GenSpec("G2", sizes_of("G2", 2, 3, 1, 1, 3, 2)))
    branch = CASE_STRATEGIES["G2"].branches[0]
    sets, order = published_plan("G2", branch.name, bags)
    removed = set().union(*map(set, sets))
    elimination = [v for name in branch.order for v in bags[name] if v not in removed]
    assert order == elimination[::-1]


def test_irreducible_members_use_the_published_order():
    from irreducible_enum import irreducible_members
    seen = 0
    for cid in ("G2", "G10"):
        for _, g, bags in irreducible_members(cid):
            events = []
            out = apply_case_strategy(g, cid, bags, recurse=recurse, trace=events)
            assert isinstance(out, Coloring) and verify_coloring(g, out) and out.k == 8
            assert events[0].kind == "lemma1" and not events[0].data["fallback"], cid
            seen += 1
    assert seen == 11
