import pytest

from pentagem.cli import main
from pentagem.errors import GraphFormatError
from pentagem.graph import cycle_graph
from pentagem.graphio import write_edgelist
from pentagem.solver import replay_trace
from pentagem.trace import ReductionTrace, TraceEvent, dumps_trace, loads_trace

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
    TraceEvent("lift", {"units": (((0, 1, 2), (0, 2)), ((5,), (5,)), ((6, 7), (7,)))}),
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
step lift units=0,1,2>0,2|5>5|6,7>7
end
"""


def test_every_kind_dumps_to_the_golden_text():
    assert dumps_trace(GOLDEN_TRACE) == GOLDEN_TEXT


def test_the_golden_text_loads_every_kind_back():
    back = loads_trace(GOLDEN_TEXT)
    assert back == GOLDEN_TRACE


def test_a_lift_with_no_units_round_trips():
    trace = ReductionTrace([TraceEvent("lift", {"units": ()})], 8, 0, 0, ())
    text = dumps_trace(trace)
    assert "step lift units=\n" in text
    assert loads_trace(text) == trace
    assert dumps_trace(loads_trace(text)) == text


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
    "step lift units=0>1",
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
