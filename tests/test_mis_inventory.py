"""No engine path runs a maximum-independent-set search.

Degree reduction peels a maximal independent set that meets every
(Delta-1)-clique, which a greedy fill finishes, so ``patterns.mis_mask``
serves only ``patterns.maximum_independent_set`` and its direct callers.
The search is replaced by one that fails, in ``patterns`` and in
``reductions``, and the inputs that reach degree reduction still solve and
replay.
"""

from __future__ import annotations

from pentagem import patterns, reductions
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

    assert not hasattr(reductions, "mis_mask")
    monkeypatch.setattr(patterns, "mis_mask", searched)
    monkeypatch.setattr(reductions, "mis_mask", searched, raising=False)
    graphs = delta_family() + list(_unions()) + [c5_blowup(40)]
    assert all(g.max_degree() > 9 for g in graphs)
    for g in graphs:
        col, trace = solve(g)
        assert col.k == g.max_degree() - 1 and verify_coloring(g, col)
        assert replay_trace(g, trace).colors == col.colors
