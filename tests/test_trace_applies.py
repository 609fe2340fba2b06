"""The ``oracle``, ``lemma1`` and ``d1_extend`` applies color the graph they
are handed through the mask of their vertices.  ``REFERENCE_APPLIES`` in
``helpers`` builds the induced copy and colors that instead; both must give
the same colors, in the same insertion order, or fail alike.

Hosts whose ids exceed 1,000 and leave gaps make the list search's rank
keys as wide as they get: a key packed by the number of vertices searched,
not by the largest id, orders them differently."""

import random
import tracemalloc
from collections import Counter

import pytest

from pentagem.errors import PentagemError
from pentagem.graph import Graph, build_graph, complete_graph, cycle_graph, join
from pentagem.graphio import parse_graph
from pentagem.patterns import clique_number
from pentagem.solver import solve
from pentagem.trace import STEPS, ReductionTrace, dumps_trace, fingerprint, loads_trace

from helpers import (REFERENCE_APPLIES, catalog_shapes, core9, prism_cores, random_graph,
                     reference_greedy)

def outcome(apply, g: Graph, data: dict, colors: dict[int, int]):
    """The colors after ``apply``, as (vertex, color) pairs in insertion
    order, or the class of the error it raised."""
    out = dict(colors)
    try:
        apply(g, data, out)
    except PentagemError as exc:
        return type(exc)
    return list(out.items())


def check_step(kind: str, g: Graph, data: dict, colors: dict[int, int]):
    """Apply the step and its reference to copies of ``colors``, require the
    same outcome, and return it."""
    got = outcome(STEPS[kind].apply, g, data, colors)
    assert got == outcome(REFERENCE_APPLIES[kind], g, data, colors), (kind, data)
    return got


def walk(g: Graph, events, seen: Counter) -> dict[int, int]:
    """Replay ``events`` on ``g``, checking each step that has a reference."""
    colors: dict[int, int] = {}
    for kind, data in events:
        if kind in REFERENCE_APPLIES:
            colors = dict(check_step(kind, g, data, colors))
            seen[kind] += 1
        else:
            STEPS[kind].apply(g, data, colors)
    return colors


def relabeled(g: Graph, ids: list[int]) -> Graph:
    """``g`` with vertex v renamed ``ids[v]``, in a host just large enough."""
    return build_graph(max(ids) + 1, [(ids[u], ids[v]) for u, v in g.edges()])


@pytest.mark.parametrize("seed", [7, 11])
def test_every_core9_event_matches_the_induced_copy(seed):
    seen = Counter()
    for inp in core9(seed):
        g = parse_graph(inp.g6, "graph6")
        col, trace = solve(g)
        colors = walk(g, [(e.kind, e.data) for e in trace.events], seen)
        assert list(colors.items()) == list(col.colors.items())
    # 168 d1_extend and 44 lemma1 events, and no oracle event, at either seed
    assert seen["d1_extend"] >= 100 and seen["lemma1"] >= 40, seen


@pytest.mark.parametrize("monotone", [True, False])
def test_core9_events_match_on_hosts_with_large_gapped_ids(monotone):
    # every input renamed into ids 1000..1000+3n: in increasing order, a
    # step colors exactly as on the input; in any order, as the reference
    rng = random.Random(2027)
    seen = Counter()
    for inp in core9(7)[::4]:
        g = parse_graph(inp.g6, "graph6")
        _, trace = solve(g)
        ids = rng.sample(range(1000, 1000 + 3 * g.n), g.n)
        if monotone:
            ids.sort()
        host = relabeled(g, ids)
        events = [(e.kind, STEPS[e.kind].map_ids(e.data, ids.__getitem__))
                  for e in trace.events]
        colors = walk(host, events, seen)
        if monotone:
            plain = walk(g, [(e.kind, e.data) for e in trace.events], Counter())
            assert list(colors.items()) == [(ids[v], c) for v, c in plain.items()]
    assert seen["d1_extend"] and seen["lemma1"], seen


def test_d1_extend_matches_on_catalog_graphs_inside_large_hosts():
    # each vertex of W keeps at most 9 - d(v) colored neighbors outside W,
    # as in a degree-9 host, so every list has at least d(v) - 1 colors
    rng = random.Random(11)
    for h in catalog_shapes():
        for _ in range(25):
            ids = rng.sample(range(1000, 1100), h.n)
            edges = [(ids[u], ids[v]) for u, v in h.edges()]
            colors, nxt = {}, 1100 + rng.randrange(40)
            for u in range(h.n):
                for _ in range(rng.randint(0, 9 - h.degree(u))):
                    edges.append((ids[u], nxt))
                    colors[nxt] = rng.randint(1, 8)
                    nxt += rng.randint(1, 7)
            g = build_graph(nxt, edges)
            got = dict(check_step("d1_extend", g, {"w": tuple(ids), "k": 8}, colors))
            assert all(got[u] != got[v] for u, v in g.edges())


def test_d1_extend_ignores_board_colors_outside_its_palette():
    # K4 joined to C4 on 0..7 with neighbors outside it that delta_set
    # lines color 0, -3 and 10**12: none of these is in 1..k, so none
    # shortens a list, and none may become a bit of a free-color mask
    # (1 << 10**12 alone would take 125 GB).  Only vertex 11's color 3
    # counts.  The colors are those the set-based lists gave.
    h = join(complete_graph(4), cycle_graph(4))
    g = build_graph(12, list(h.edges()) + [(0, 8), (4, 8), (1, 9), (5, 9), (4, 10), (6, 10),
                                           (2, 11), (7, 11)])
    text = dumps_trace(ReductionTrace([], 8, *fingerprint(g))).replace("end\n", "".join(
        f"step delta_set i={v} color={c}\n" for v, c in ((8, 0), (9, -3), (10, 10 ** 12), (11, 3)))
        + "step d1_extend w=0,1,2,3,4,5,6,7 k=8\nend\n")
    *sets, extend = loads_trace(text).events
    colors = {}
    for e in sets:
        STEPS[e.kind].apply(g, e.data, colors)
    tracemalloc.start()
    try:
        got = check_step("d1_extend", g, extend.data, colors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [(8, 0), (9, -3), (10, 10 ** 12), (11, 3), (2, 1), (7, 2), (0, 3), (1, 4),
                   (3, 5), (4, 6), (5, 2), (6, 6)]
    assert peak < 1 << 16


def test_oracle_matches_on_cores_inside_large_hosts():
    # k one below each core's clique number, where the search fails, at it
    # and one above
    rng = random.Random(5)
    cores = prism_cores() + [random_graph(n, 0.5, seed) for n in (6, 10, 14)
                             for seed in range(4)]
    for h in cores:
        ids = rng.sample(range(1000, 1000 + 4 * h.n), h.n)
        omega = clique_number(h)[0]
        for k in (omega - 1, omega, omega + 1):
            check_step("oracle", relabeled(h, ids), {"vs": tuple(ids), "k": k}, {})



def board_or_error(apply, g: Graph, data: dict, colors: dict[int, int]):
    """``outcome``, with the error's message beside its class."""
    out = dict(colors)
    try:
        apply(g, data, out)
    except PentagemError as exc:
        return type(exc), str(exc)
    return list(out.items())


def test_one_vertex_greedy_lines_match_the_general_first_fit():
    # a one-vertex line takes color 1 after its checks; the general path
    # must give the same board, in the same insertion order, or the same
    # error, on boards that already color the vertex, its neighbors or
    # vertices outside the graph.  vs=3,3 still takes the general path.
    rng = random.Random(2006)
    for _ in range(60):
        n = rng.randint(1, 40)
        g = random_graph(n, rng.random(), rng.randrange(1 << 30))
        ids = rng.sample(range(-2, n + 2), rng.randint(0, n + 4))
        board = {v: rng.randint(-1, 10) for v in ids}
        for vs in [(-1,), (0,), (n - 1,), (n,), (rng.randrange(n),), (3, 3)]:
            for k in (-2, 0, 1, 8):
                data = {"vs": vs, "k": k}
                assert (board_or_error(STEPS["greedy"].apply, g, data, board)
                        == board_or_error(reference_greedy, g, data, board)), (n, vs, k, board)
