"""Mutated traces of real solves go through ``pentagem replay`` in process:
each must end in a documented exit code, 0 to 6, with no traceback.

A mutation drops, duplicates or swaps event lines, sets one integer token
of any line to -1, n, 10**9 or 0, or sets a ``greedy`` line's ``k=`` to 0;
an example applies one to three.  The traces are those of a G2 member,
which ``solve`` colors with one ``lemma1`` line, of ``caterpillar(50)``,
which peels, and of ``padded_member()``, whose 300 isolated vertices each
have a one-vertex ``greedy`` line.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagem.cli import main
from pentagem.graphio import parse_graph, write_graph6
from pentagem.solver import solve
from pentagem.trace import dumps_trace

from helpers import caterpillar, padded_member

G2_MEMBER = "Omij^dnF?wyJjmFFyJnfH"  # a core9 host: 16 vertices, Delta 9
INTEGER = re.compile(r"(?<=[=,;: ])-?\d+")


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """(graph file, order, trace lines) for each input."""
    out = []
    for g in (parse_graph(G2_MEMBER, "graph6"), caterpillar(50), padded_member()):
        path = tmp_path_factory.mktemp("graph") / "graph.g6"
        path.write_text(write_graph6(g))
        out.append((path, g.n, dumps_trace(solve(g)[1]).splitlines()))
    return out


def mutate(data, n: int, lines: list[str]) -> None:
    """Apply one mutation to ``lines`` in place; events are lines 3..-2."""
    op = data.draw(st.sampled_from(("drop", "duplicate", "swap", "integer", "k=0")))
    events = range(3, len(lines) - 1)
    if op == "integer":
        i = data.draw(st.sampled_from(range(len(lines))))
        spots = list(INTEGER.finditer(lines[i]))
        if spots:
            m = data.draw(st.sampled_from(spots))
            new = data.draw(st.sampled_from(("-1", str(n), str(10 ** 9), "0")))
            lines[i] = lines[i][:m.start()] + new + lines[i][m.end():]
    elif op == "k=0":
        greedy = [i for i in events if lines[i].startswith("color greedy ")]
        if greedy:
            i = data.draw(st.sampled_from(greedy))
            lines[i] = re.sub(r" k=\S*", " k=0", lines[i])
    elif events:
        i = data.draw(st.sampled_from(events))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            j = data.draw(st.sampled_from(events))
            lines[i], lines[j] = lines[j], lines[i]


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_a_mutated_trace_ends_in_a_documented_exit(solved, data):
    graph, n, lines = data.draw(st.sampled_from(solved))
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, n, lines)
    trace = graph.with_name("trace.txt")
    trace.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["replay", str(graph), str(trace)])
    assert 0 <= code <= 6 and "Traceback" not in err.getvalue(), err.getvalue()
