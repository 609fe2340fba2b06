"""No engine path asks for a maximum independent set.

Degree reduction peels a maximal independent set that meets every
(Delta-1)-clique, which a greedy fill finishes, so
``patterns.maximum_independent_set`` serves only library callers.  It is
replaced, under every name a pentagem module holds it by, with one that
fails, and the inputs that reach degree reduction still solve and replay.
"""

from __future__ import annotations

import sys

from pentagem import patterns
from pentagem.coloring import verify_coloring
from pentagem.graph import disjoint_union
from pentagem.instances import gallery_g2
from pentagem.solver import replay_trace, solve

from helpers import c5_blowup, delta_family


def _unions():
    one = gallery_g2(10)
    g = one
    for _ in range(5):
        g = disjoint_union(g, one)
        yield g


def test_solve_never_searches_a_maximum_independent_set(monkeypatch):
    def searched(*args):
        raise AssertionError("the engine searched a maximum independent set")

    real = patterns.maximum_independent_set
    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "pentagem" and getattr(mod, real.__name__, None) is real:
            monkeypatch.setattr(mod, real.__name__, searched)
    assert patterns.maximum_independent_set is searched
    graphs = delta_family() + list(_unions()) + [c5_blowup(40)]
    assert all(g.max_degree() > 9 for g in graphs)
    for g in graphs:
        col, trace = solve(g)
        assert col.k == g.max_degree() - 1 and verify_coloring(g, col)
        assert replay_trace(g, trace).colors == col.colors
