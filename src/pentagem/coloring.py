"""Colorings, degeneracy orders, the independent-sets coloring engine, and
``list_color``, the exact list search behind the oracle and catalog extension.
Each works on the subgraph a vertex mask induces in a host graph (all of it
by default), in the host's own vertex ids, so no caller builds a copy.

The engine realizes the workhorse bound: if pairwise disjoint independent
sets I_1..I_t are removed and the remainder admits a vertex order with
back-degree at most k-t-1 (each vertex has at most k-t-1 earlier neighbors;
the reverse of an elimination order), the graph is k-colorable — each I_j
gets one reserved color (k, k-1, ... downward) and the remainder is colored
greedily along the order with the other k-t colors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import PreconditionError
from .graph import Graph, bits, mask_of

__all__ = [
    "Coloring",
    "verify_coloring",
    "back_degree_profile",
    "degeneracy_order",
    "first_fit",
    "list_color",
    "greedy_color",
    "color_with_independent_sets",
]


@dataclass
class Coloring:
    """Vertex -> color map with its palette size; colors live in 1..k."""

    colors: dict[int, int]
    k: int


def verify_coloring(g: Graph, coloring: Coloring) -> bool:
    """True iff total, within palette, and no edge is monochromatic: no
    vertex has a neighbor in its own color class's mask."""
    c = coloring.colors
    if len(c) != g.n:
        return False
    classes: dict[int, int] = {}
    for v in range(g.n):
        cv = c.get(v)
        if cv is None or not 1 <= cv <= coloring.k:
            return False
        classes[cv] = classes.get(cv, 0) | 1 << v
    return not any(a & classes[c[v]] for v, a in enumerate(g.adj))


def back_degree_profile(g: Graph, order: list[int] | tuple[int, ...],
                        mask: int | None = None) -> int:
    """Maximum over v of the number of neighbors earlier in ``order``, which
    lists each vertex of ``mask`` (default: all of ``g``) once."""
    if sorted(order) != list(bits(g.full_mask() if mask is None else mask)):
        raise PreconditionError("order is not a permutation of the vertex set")
    seen = 0
    worst = 0
    for v in order:
        worst = max(worst, (g.adj[v] & seen).bit_count())
        seen |= 1 << v
    return worst


def degeneracy_order(g: Graph, mask: int | None = None) -> list[int]:
    """Smallest-last order of ``g``, or of the subgraph it induces on
    ``mask``: repeatedly peel a minimum-degree vertex.

    The returned order realizes back-degree equal to the degeneracy; ties
    break toward smaller vertex ids, so the order is deterministic.
    """
    alive = g.full_mask() if mask is None else mask
    peeled: list[int] = []
    while alive:
        v = min(bits(alive), key=lambda u: ((g.adj[u] & alive).bit_count(), u))
        peeled.append(v)
        alive &= ~(1 << v)
    peeled.reverse()
    return peeled


def first_fit(adj, order, k: int, colors: dict[int, int]) -> None:
    """Give each vertex of ``order`` in turn the smallest color in 1..k that
    none of its neighbors already holds in ``colors``, writing into it;
    ``adj`` is a per-vertex list of neighborhood masks, a graph's ``adj``.
    ``order`` is a sequence; it is read twice when it has more than one
    vertex and ``colors`` is not empty.

    A single vertex takes the lowest color missing from a mask of the
    colors its neighbors hold.  Longer orders probe colors as class masks:
    a vertex takes the first color c whose class, the mask of the vertices
    holding c, misses its neighborhood, and a recolored vertex leaves its
    old class.  The classes start from the colors the neighbors of
    ``order`` hold in ``colors``, read in one walk (none when it is empty).
    A vertex with d neighbors gets at most d + 1, so only colors up to k
    are recorded, and up to d + 1 for a single vertex, or up to the size of
    the class walk plus one (the order of ``adj`` on an empty board) for a
    longer order: a huge color or k costs nothing.
    """
    get = colors.get
    if len(order) == 1:
        v = order[0]
        a = adj[v]
        top = min(k, a.bit_count() + 1)
        used = 1  # bit c for each color c a neighbor holds; bit 0 is no color
        while a:
            low = a & -a
            c = get(low.bit_length() - 1, 0)
            if 0 < c <= top:
                used |= 1 << c
            a ^= low
        c = (~used & used + 1).bit_length() - 1
        if c > k:
            raise PreconditionError(f"greedy needs more than {k} colors at vertex {v}")
        colors[v] = c
        return
    near = 0
    if colors:
        for v in order:
            near |= adj[v]
        top = near.bit_count() + 1
    else:
        top = len(adj)
    if top > k:
        top = k if k > 0 else 0
    cls = [0] * (top + 2)  # class top + 1 stays empty, so every probe stops
    while near:
        low = near & -near
        c = get(low.bit_length() - 1, 0)
        if 0 < c <= top:
            cls[c] |= low
        near ^= low
    for v in order:
        a = adj[v]
        c = 1
        while a & cls[c]:
            c += 1
        if c > k:
            raise PreconditionError(f"greedy needs more than {k} colors at vertex {v}")
        old = get(v, 0)
        if 0 < old <= top:
            cls[old] &= ~(1 << v)
        colors[v] = c
        cls[c] |= 1 << v


def list_color(adj, mask: int, free, fixed: dict[int, int], cliques=()) -> dict[int, int] | None:
    """The first proper coloring of the subgraph ``adj`` induces on ``mask``
    that keeps the ``fixed`` colors and gives each other vertex v a color of
    its list, the bitmask ``free[v]`` (``free`` is keyed by vertex), fixed
    vertices first, then the rest in the order colored; or None.

    An exact search on an explicit stack.  It colors the vertex with the
    fewest free colors (ties: more neighbors in ``mask``, then lower id)
    with each free color in turn, lowest first, but on a retry skips a color
    no vertex holds if a lower such color lies in exactly the same lists:
    swapping the two maps its branch onto one already tried.  It takes back
    a color that leaves a clique of ``cliques`` (masks inside ``mask``, else
    PreconditionError) fewer free colors among its uncolored members than
    members (Hall).  A node's subtree depends only on its uncolored set and
    their free masks, so a node whose key failed once is cut; keys are built
    only once one has failed.  No cut removes the first solution.
    """
    for q in cliques:  # each member must see all the others
        m = q
        while m and not q & ~mask and q & ~adj[(low := m & -m).bit_length() - 1] == low:
            m ^= low
        if m:
            raise PreconditionError(f"mask {q:#x} is not a clique inside the searched mask")
    colors, used, left = dict(fixed), mask_of(fixed.values()), mask & ~mask_of(fixed)
    free = {u: free[u] for u in bits(left)}
    for v, c in fixed.items():
        for u in bits(adj[v] & left):
            free[u] &= ~(1 << c)
    # w bits hold any id or degree in mask, so one int ranks (size, tie)
    w = mask.bit_length().bit_length()
    top, shift = (1 << w) - 1, 2 * w
    tie = {u: (top - (adj[u] & mask).bit_count()) << w | u for u in free}
    lists, twins = {free[u] for u in tie}, None
    dead, stack = set(), []  # stack: (key, v, rest, nbrs, colors left, color, hit, fresh)
    while left:
        key, best, m = [left] if dead else None, -1, left
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            if key:
                key.append(free[u])
            rank = free[u].bit_count() << shift | tie[u]
            if best < 0 or rank < best:
                best, v = rank, u
        if not key or (key := tuple(key)) not in dead:
            rest = left & ~(1 << v)
            stack.append((key, v, rest, adj[v] & rest, free[v], 0, (), 0))
        while stack:  # color the top vertex with its next color, if any
            key, v, rest, nbrs, cs, low, hit, fresh = stack.pop()
            for u in hit:
                free[u] |= low
            used ^= fresh
            if cs and low:  # a retry: used is as on entry, and low, just tried, is below cs
                if twins is None:  # sets of 2+ colors that exactly the same vertices list
                    twins = [reduce(int.__or__, lists, 0)]
                    for f in lists:
                        twins = [p for grp in twins for p in (grp & f, grp & ~f) if p & p - 1]
                for grp in twins:  # v lists all of a group's unused colors or none
                    x = grp & (cs | low) & ~used
                    cs ^= x & x - 1
            if cs:
                low = cs & -cs
                hit = [u for u in bits(nbrs) if free[u] & low]
                for u in hit:
                    free[u] ^= low
                fresh = low & ~used
                used |= low
                colors[v] = low.bit_length() - 1
                stack.append((key, v, rest, nbrs, cs ^ low, low, hit, fresh))
                for q in cliques:  # each union stops once it covers the members
                    m, union, need = q & rest, 0, (q & rest).bit_count()
                    while m and union.bit_count() < need:
                        b = m & -m
                        union |= free[b.bit_length() - 1]
                        m ^= b
                    if union.bit_count() < need:
                        break  # the next pop takes the color back
                else:
                    left = rest
                    break
                continue
            colors.pop(v, None)
            dead.add(key or _state(rest | 1 << v, free))  # all below is undone
        else:
            return None
    return colors


def _state(left: int, free) -> tuple[int, ...]:
    """A list search node's key: its uncolored set, then their free masks."""
    return (left, *(f for u, f in free.items() if left >> u & 1))


def greedy_color(g: Graph, order: list[int] | tuple[int, ...], k: int) -> dict[int, int]:
    """Greedy coloring along ``order`` using the smallest free color <= k."""
    colors: dict[int, int] = {}
    first_fit(g.adj, order, k, colors)
    return colors


def color_with_independent_sets(g: Graph, sets: list[tuple[int, ...]], k: int,
                                order: list[int] | None = None,
                                mask: int | None = None) -> Coloring:
    """k-color ``g``, or the subgraph it induces on ``mask``, from disjoint
    independent sets plus a degenerate remainder.

    ``order`` (over the remainder) may be supplied; otherwise a smallest-last
    order is computed.  The back-degree bound k-t-1 is always checked, never
    trusted.  Set j (1-based) receives color k-j+1; greedy uses 1..k-t.
    """
    mask = g.full_mask() if mask is None else mask
    t = len(sets)
    if t > k:
        raise PreconditionError("more independent sets than colors")
    taken = 0
    for s in sets:
        if not all(v >= 0 and mask >> v & 1 for v in s):
            raise PreconditionError("a reserved set leaves the vertex set")
        sm = mask_of(s)
        if sm & taken:
            raise PreconditionError("independent sets are not disjoint")
        if not g.is_independent(s):
            raise PreconditionError("a reserved set is not independent")
        taken |= sm
    if order is None:
        order = degeneracy_order(g, mask & ~taken)
    elif sorted(order) != list(bits(mask & ~taken)):
        raise PreconditionError("order must enumerate exactly the remainder")

    seen = 0
    for v in order:
        if (g.adj[v] & seen).bit_count() > k - t - 1:
            raise PreconditionError(
                f"remainder order exceeds back-degree {k - t - 1} at vertex {v}")
        seen |= 1 << v

    colors: dict[int, int] = {}
    for j, s in enumerate(sets):
        for v in s:
            colors[v] = k - j
    # Reserved colors sit above k-t, so greedy cannot collide with them.
    first_fit(g.adj, order, k - t, colors)
    return Coloring(colors, k)
