import sys
from collections import Counter

import pytest

from pentagem import graph as graph_module
from pentagem import reductions
from pentagem.cli import main
from pentagem.coloring import verify_coloring
from pentagem.errors import GraphFormatError
from pentagem.graph import build_graph, complete_graph, cycle_graph, disjoint_union, join
from pentagem.graphio import write_edgelist
from pentagem.solver import replay_trace
from pentagem.trace import ReductionTrace, TraceEvent, dumps_trace, fingerprint, loads_trace

# one event of every kind, with both forms of the oracle and lemma1 lines
GOLDEN_EVENTS = [
    TraceEvent("greedy", {"vs": (0, 1, 2), "k": 8}),
    TraceEvent("brooks", {"vs": (3, 4, 5, 6), "delta": 3}),
    TraceEvent("oracle", {"vs": (7, 8), "k": 2}),
    TraceEvent("oracle", {"vs": (0, 1, 2, 3), "k": 8, "case": "G2", "branch": "two_sets"}),
    TraceEvent("lemma1", {"vs": (0, 1, 2, 3, 4), "sets": ((0, 3), (1,)), "order": (4, 2),
                          "k": 8, "case": "G10", "branch": "main", "fallback": False}),
    TraceEvent("lemma1", {"vs": (5, 6, 7), "sets": ((5,),), "order": (7, 6), "k": 8,
                          "case": "H", "branch": "anchor_two", "fallback": True}),
    TraceEvent("low_degree", {"v": 9, "k": 8}),
    TraceEvent("copycat", {"a": (10, 11), "b": (12, 13, 14)}),
    TraceEvent("d1_extend", {"w": (0, 1, 2, 3, 4, 5, 6, 7), "k": 8}),
    TraceEvent("clique_copy", {"removed": (15,), "donor": (2, 3)}),
    TraceEvent("a7_peel", {"removed": (12, 14), "k": 8}),
    TraceEvent("delta_set", {"i_set": (1, 9, 15), "color": 9}),
]
GOLDEN_TRACE = ReductionTrace(GOLDEN_EVENTS, 9, 16, 30, ((3, 8), (4, 6), (5, 2)))

# recorded before the event kinds were moved into one table
GOLDEN_TEXT = """\
pentagem-trace 1
graph n=16 m=30 degrees=3:8,4:6,5:2
palette 9
color greedy vs=0,1,2 k=8
color brooks vs=3,4,5,6 delta=3
color oracle vs=7,8 k=2
color oracle vs=0,1,2,3 k=8 case=G2 branch=two_sets
color lemma1 vs=0,1,2,3,4 sets=0,3;1 order=4,2 k=8 case=G10 branch=main fallback=0
color lemma1 vs=5,6,7 sets=5 order=7,6 k=8 case=H branch=anchor_two fallback=1
step low_degree v=9 k=8
step copycat a=10,11 b=12,13,14
step d1_extend w=0,1,2,3,4,5,6,7 k=8
step clique_copy removed=15 donor=2,3
step a7_peel removed=12,14 k=8
step delta_set i=1,9,15 color=9
end
"""


def test_every_kind_dumps_to_the_golden_text():
    assert dumps_trace(GOLDEN_TRACE) == GOLDEN_TEXT


def test_the_golden_text_loads_every_kind_back():
    back = loads_trace(GOLDEN_TEXT)
    assert back == GOLDEN_TRACE


def test_a_trace_event_is_an_immutable_kind_data_pair():
    e = TraceEvent("low_degree", {"v": 9, "k": 8})
    with pytest.raises(AttributeError):
        e.kind = "greedy"
    with pytest.raises(AttributeError):
        e.data = {}
    kind, data = e
    assert (kind, data) == ("low_degree", {"v": 9, "k": 8}) == e
    assert e == TraceEvent(kind=kind, data=data)
    assert repr(e) == "TraceEvent(kind='low_degree', data={'v': 9, 'k': 8})"


def test_lemma1_fills_in_its_defaults_on_load():
    text = GOLDEN_TEXT.replace(" case=G10 branch=main fallback=0", "")
    assert loads_trace(text).events[4].data == {
        "vs": (0, 1, 2, 3, 4), "sets": ((0, 3), (1,)), "order": (4, 2), "k": 8,
        "case": "-", "branch": "-", "fallback": False}


# -- malformed documents: each is a format error (exit 2), not a traceback -------

C10_HEADER = "graph n=10 m=10 degrees=2:10\npalette 8\n"
C10_GREEDY = "color greedy vs=0,1,2,3,4,5,6,7,8,9 k=8\n"


@pytest.mark.parametrize("text", [
    "pentagem-trace\n" + C10_HEADER + C10_GREEDY + "end\n",
    "pentagem-trace x\n" + C10_HEADER + C10_GREEDY + "end\n",
    "pentagem-trace 1\n" + C10_HEADER.replace("palette 8", "palette") + C10_GREEDY + "end\n",
    "pentagem-trace 1\n" + C10_HEADER + "step\nend\n",
    "pentagem-trace 1\n" + C10_HEADER.replace("n=10 ", "") + C10_GREEDY + "end\n",
    "pentagem-trace 1\n" + C10_HEADER + "step low_degree v=3 k=8 junk=1\nend\n",
    "pentagem-trace 1\n" + C10_HEADER + "step low_degree v=3 k=8 v=5\nend\n",
    "pentagem-trace 1\n" + C10_HEADER + "step low_degree v=3 k=8 junk\nend\n",
    "pentagem-trace 1\n" + C10_HEADER + "step delta_set i_set=3 color=9\nend\n",
    "pentagem-trace 1\n" + C10_HEADER + "color oracle vs=0,1 k=2 case=G2 case=G3\nend\n",
    "pentagem-trace 1\n" + C10_HEADER.replace("m=10", "m=10 m=11") + C10_GREEDY + "end\n",
], ids=["no-version", "bad-version", "bare-palette", "bare-step", "graph-without-n",
        "unknown-field", "repeated-field", "bare-token", "key-for-tag",
        "repeated-optional-field", "repeated-graph-field"])
def test_malformed_documents_are_format_errors(text):
    with pytest.raises(GraphFormatError):
        loads_trace(text)


@pytest.mark.parametrize("line", [
    "step low_degree v=9999 k=8",
    "step low_degree v=-1 k=8",
    "step delta_set i=3,10 color=9",
    "color greedy vs=9999 k=8",
    "color greedy vs=-1,0 k=8",
    "color brooks vs=-1,0,1 delta=2",
    "step d1_extend w=-1,0,1,2,3,4,5,6 k=8",
    # a cycle's maximum degree is 2
    "color brooks vs=0,1,2,3,4,5,6,7,8,9 delta=3",
    # in range, but read before they have a color or outside the subgraph
    "step copycat a=0 b=1",
    "color lemma1 vs=0,1,2 sets=5 order=1,2 k=8",
])
def test_replay_rejects_steps_that_do_not_fit_the_graph(line):
    trace = loads_trace("pentagem-trace 1\n" + C10_HEADER + line + "\nend\n")
    with pytest.raises(GraphFormatError):
        replay_trace(cycle_graph(10), trace)


def test_replay_cli_exits_2_on_a_vertex_outside_the_graph(tmp_path, capsys):
    graph = tmp_path / "c10.el"
    graph.write_text(write_edgelist(cycle_graph(10)))
    bad = tmp_path / "bad.trace"
    bad.write_text("pentagem-trace 1\n" + C10_HEADER + "step low_degree v=9999 k=8\nend\n")
    assert main(["replay", str(graph), str(bad)]) == 2
    assert "9999" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["step low_degree v=-1 k=8", "step a7_peel removed=-1 k=8"])
def test_a_negative_vertex_is_rejected_at_its_own_line(line):
    # -1 must not read vertex 9's row and color key -1 for the end-of-replay
    # range check to catch
    trace = loads_trace("pentagem-trace 1\n" + C10_HEADER + line + "\nend\n")
    with pytest.raises(GraphFormatError) as info:
        replay_trace(cycle_graph(10), trace)
    assert str(info.value) == "vertices -1 are not all in the graph of order 10"


def test_replay_cli_names_a_negative_vertex_at_its_line(tmp_path, capsys):
    graph = tmp_path / "c10.el"
    graph.write_text(write_edgelist(cycle_graph(10)))
    bad = tmp_path / "bad.trace"
    bad.write_text("pentagem-trace 1\n" + C10_HEADER + "step low_degree v=-1 k=8\nend\n")
    assert main(["replay", str(graph), str(bad)]) == 2
    assert "vertices -1 are not all in the graph of order 10" in capsys.readouterr().err


def test_a_brooks_line_counts_the_degrees_once(monkeypatch):
    # one pass over the mask gives delta and the vertices below it; the walk
    # from each component's low root is the search that finds the component,
    # so only the delta-regular components are split into components, once.
    # Two wheels have their rims below the hubs' degree 6; a circulant on 9
    # vertices with jumps 1, 2 and 3 is 6-regular and 2-connected, and its
    # cut-vertex checks walk from one vertex rather than split
    calls = Counter()
    for fn in (reductions._delta_and_low, graph_module.component_masks):
        def spy(*args, fn=fn):
            calls[fn.__name__] += 1
            return fn(*args)
        for name, mod in list(sys.modules.items()):
            if name.partition(".")[0] == "pentagem" and getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, spy)
    wheel = join(complete_graph(1), cycle_graph(6))
    wheels = disjoint_union(wheel, wheel)
    circulant = build_graph(9, [(i, (i + j) % 9) for i in range(9) for j in (1, 2, 3)])
    for g, searches in ((wheels, 0), (disjoint_union(wheels, circulant), 1)):
        calls.clear()
        n, m, hist = fingerprint(g)
        trace = ReductionTrace([TraceEvent("brooks", {"vs": tuple(range(g.n)), "delta": 6})],
                               6, n, m, hist)
        replayed = replay_trace(g, loads_trace(dumps_trace(trace)))
        assert verify_coloring(g, replayed)
        assert (calls["_delta_and_low"], calls["component_masks"]) == (1, searches)


@pytest.mark.parametrize("g, delta", [(cycle_graph(10), 3), (complete_graph(4), 4)])
def test_a_wrong_brooks_delta_is_reported_before_the_brooks_preconditions(g, delta):
    # a cycle is below maximum degree 3 and K4 is complete on Delta+1
    # vertices, so Brooks itself would refuse both; the line's delta is
    # checked first
    n, m, hist = fingerprint(g)
    line = TraceEvent("brooks", {"vs": tuple(range(g.n)), "delta": delta})
    trace = ReductionTrace([line], delta, n, m, hist)
    with pytest.raises(GraphFormatError) as info:
        replay_trace(g, loads_trace(dumps_trace(trace)))
    assert str(info.value) == (f"brooks line says delta={delta}, but its vertices have "
                               f"maximum degree {g.max_degree()}")
