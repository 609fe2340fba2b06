"""Classification walks and matches an irreducible core on its quotient.

Once the copycat rule has run, every bag of an irreducible core is a
clique of true twins, so the freeness walks run on one vertex per bag,
the template search runs only for a template whose graph has the
degree sequence of the core's module quotient, and each closure that finds
the modules walks one vertex per class of true twins.  All three are
counted, not timed, on every core ``solve`` classifies in the ``core9``
inputs, and the closures also on clique blow-ups of C5.  ``classify``
matches those cores on their twin classes and makes no closure at all,
so the closures are counted on ``maximal_modules`` called directly.
"""

from __future__ import annotations

import sys
import types

from pentagem import classify, patterns, solver, structure
from pentagem.graph import mask_of, true_twin_classes
from pentagem.graphio import parse_graph
from pentagem.patterns import FIFTH
from pentagem.structure import TEMPLATES, maximal_modules

from helpers import c5_blowup, core9, core9_cores

SEARCH = next(c for c in structure.match_expansion.__code__.co_consts
              if isinstance(c, types.CodeType) and c.co_name == "search")


def quotient_degrees(g) -> list[int]:
    """Sorted degrees of the graph one vertex of each maximal module induces."""
    reps = [m[0] for m in maximal_modules(g)]
    return sorted(sum(g.has_edge(r, s) for s in reps) for r in reps)


def test_classify_walks_and_searches_only_on_quotients(monkeypatch):
    walks: list[tuple[str, int]] = []  # (shape, vertices walked) inside classify
    nodes: dict[tuple[int, str], int] = {}  # search nodes per (core, template)
    cores = []
    inside, at = False, None
    real_p4, real_classify = patterns.induced_p4, solver.classify

    def p4(g, mask, fifth=None):
        if inside:
            shape = next((p for p, row in FIFTH.items() if row == fifth), "P4")
            walks.append((shape, mask.bit_count()))
        return real_p4(g, mask, fifth)

    def profile(frame, event, arg):
        nonlocal at
        if event == "call" and frame.f_code is structure.match_expansion.__code__:
            at = (len(cores) - 1, frame.f_locals["template"].id)
        elif event == "call" and frame.f_code is SEARCH:
            nodes[at] = nodes.get(at, 0) + 1

    def classify(g):
        nonlocal inside
        cores.append(g)
        inside = True
        sys.setprofile(profile)
        try:
            return real_classify(g)
        finally:
            sys.setprofile(None)
            inside = False

    monkeypatch.setattr(patterns, "induced_p4", p4)
    monkeypatch.setattr(solver, "classify", classify)
    for inp in core9(7):
        solver.solve(parse_graph(inp.g6, "graph6"))

    assert len(cores) >= 40 and max(g.n for g in cores) > 9
    rows = [n for shape, n in walks if shape in ("P5", "GEM")]
    assert len(rows) == 2 * len(cores) and max(rows) <= 9, max(rows)
    assert nodes and sum(nodes.values()) >= len(cores)
    for (i, tid), count in nodes.items():
        want = sorted(TEMPLATES[tid].graph.degree_sequence())
        assert quotient_degrees(cores[i]) == want, (tid, count)


def test_module_closures_walk_one_vertex_per_twin_class(monkeypatch):
    walked: list[int] = []  # the mask each closure walked
    real = structure._closure

    def closure(*args):
        grown = real(*args)
        walked.append(grown)
        return grown

    cores = core9_cores(7)
    monkeypatch.setattr(structure, "_closure", closure)
    sizes = set()
    for g in cores:
        classes = true_twin_classes(g.adj, range(g.n))
        reps = mask_of(c[0] for c in classes)
        walked.clear()
        classify(g)
        assert not walked  # matched on its twin classes
        maximal_modules(g)
        assert walked and all(not m & ~reps for m in walked), g.adj
        assert max(m.bit_count() for m in walked) <= len(classes) < g.n
        sizes.add(len(classes))
    assert len(cores) >= 40 and sizes <= {6, 9}, sizes
    for a in (50, 100, 200):
        walked.clear()
        assert classify(c5_blowup(a)).kind == "G1"
        assert not walked
        maximal_modules(c5_blowup(a))
        assert walked and max(m.bit_count() for m in walked) <= 5
