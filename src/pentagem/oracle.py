"""Exact chromatic number, and k-colorability through the list search of
``coloring.list_color``.

Validation oracle for the whole pipeline and the coloring routine for the
perfect case (no induced C5), where the chromatic number is known to equal
the clique number and only a witness is needed.  ``colorable_with`` searches
a graph or the subgraph a vertex mask induces in it, in the graph's own ids.
"""

from __future__ import annotations

from .coloring import Coloring, degeneracy_order, greedy_color, list_color
from .errors import OracleCapExceeded
from .graph import Graph, bits
from .patterns import clique_number

__all__ = ["DEFAULT_ORACLE_CAP", "exact_chromatic", "colorable_with"]

DEFAULT_ORACLE_CAP = 24


def colorable_with(g: Graph, k: int, seed_clique: tuple[int, ...] | None = None,
                   mask: int | None = None) -> dict[int, int] | None:
    """Deterministic k-colorability search of ``g``, or of the subgraph it
    induces on ``mask``; returns a coloring or None.

    A maximum clique is fixed to colors 1..|K|, and every other vertex gets
    the list 1..k, so the list search branches on the most saturated vertex
    (ties: highest degree, then smallest id), a DSATUR-style choice, and
    opens at most one fresh color at a time.  It therefore never reaches a
    color above n, the vertices searched, and the lists stop at min(k, n).
    """
    mask = g.full_mask() if mask is None else mask
    if k <= 0:
        return None if mask else {}
    if seed_clique is None:
        _, seed_clique = clique_number(g, mask)
    if len(seed_clique) > k:
        return None
    lists = dict.fromkeys(bits(mask), (1 << min(k, mask.bit_count()) + 1) - 2)
    return list_color(g.adj, mask, lists, {v: i + 1 for i, v in enumerate(seed_clique)})


def exact_chromatic(g: Graph, cap: int = DEFAULT_ORACLE_CAP) -> tuple[int, Coloring]:
    """Exact chromatic number with a witness coloring.

    Clique number is the lower bound, greedy along a smallest-last order the
    upper; the gap is closed by k-colorability searches.  Refuses graphs
    above ``cap`` explicitly rather than silently degrading.
    """
    if g.n > cap:
        raise OracleCapExceeded(f"n={g.n} exceeds the oracle cap {cap}")
    lb, clique = clique_number(g)
    greedy = greedy_color(g, degeneracy_order(g), g.n)
    ub = max(greedy.values(), default=0)
    for k in range(lb, ub):
        if (witness := colorable_with(g, k, seed_clique=clique)) is not None:
            return k, Coloring(witness, k)
    return ub, Coloring(greedy, ub)
