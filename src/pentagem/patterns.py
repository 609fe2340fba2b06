"""Exact detection of the small induced shapes the pipeline relies on.

Every shape searched for is an induced P4 v1-v2-v3-v4 plus at most one
vertex: the P4 itself (a cograph is P4-free), and P5, gem and C5, whose
fifth vertex's adjacency to v1..v4 is one row of ``FIFTH``.  One walk,
``induced_p4``, enumerates the P4s inside a host bitmask in lexicographic
order, so the first hit is the lexicographically smallest witness and an
exhausted walk is an exhaustive-absence guarantee.  ``is_p5_gem_free``
walks one vertex of each twin class, since neither P5 nor gem has two
twins, and the lex-least witness lies among those vertices.

Cliques come from one search, ``_maximal_cliques``, a Bron-Kerbosch
without a pivot that yields the maximal cliques of a given size or more
inside a mask in lexicographic order: ``has_clique`` takes its first
answer, ``clique_number`` its last answer once it raises the size past
each one, and degree reduction the whole list.  A maximum independent set
is a maximum clique of the complement, so the same search answers that
too; no engine path asks for one.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import suppress
from dataclasses import dataclass

from .graph import Graph, bits, complement, mask_of, true_twin_classes

__all__ = [
    "PatternWitness",
    "induced_p4",
    "find_induced",
    "is_p5_gem_free",
    "has_clique",
    "clique_number",
    "maximum_independent_set",
]

# adjacency of the fifth vertex to v1..v4 of an induced P4
FIFTH = {"P5": (0, 0, 0, 1), "GEM": (1, 1, 1, 1), "C5": (1, 0, 0, 1)}


@dataclass(frozen=True)
class PatternWitness:
    """An ordered vertex tuple realizing a pattern: the P4 v1..v4 in path
    order, then the fifth vertex (path order for P5, P4 then apex for GEM,
    cyclic order for C5)."""

    pattern: str
    vertices: tuple[int, ...]

    def check(self, g: Graph) -> bool:
        """Verify the witness by direct edge comparison against the pattern."""
        vs, fifth = self.vertices, FIFTH.get(self.pattern)
        if fifth is None or len(vs) != 5 or len(set(vs)) != 5:
            return False
        return all(g.has_edge(vs[i], vs[j]) == bool(fifth[i] if j == 4 else j == i + 1)
                   for i in range(5) for j in range(i + 1, 5))


def induced_p4(g: Graph, mask: int,
               fifth: tuple[int, int, int, int] | None = None) -> tuple[int, ...] | None:
    """The lex-least induced P4 (v1, v2, v3, v4) inside ``mask``; None if none.

    Given ``fifth`` (a row of ``FIFTH``), the lex-least such P4 that some
    vertex of ``mask`` extends with that adjacency to v1..v4, followed by
    the least such vertex.  A vertex adjacent to vi is not vi, and one kept
    out of vi's closed neighborhood is not vi either, so the fifth vertex
    is always distinct from the four.

    The fifth-vertex candidates are narrowed as the prefix grows: s1 after
    v1, s2 after v2, s3 after v3.  Each only shrinks, so once one is empty
    no extension of that prefix yields a hit and the walk skips to the
    next prefix; the first hit found is unchanged.  Each comes from the
    vertex's own row as the walk reaches it: a table of closed rows, each as
    long as its vertex's id, would take O(n^2) bits.
    """
    adj = g.adj
    o1, o2, o3, o4 = fifth or (0, 0, 0, 0)
    any5 = fifth is None
    m1 = mask
    while m1:
        b = m1 & -m1
        m1 ^= b
        v1 = b.bit_length() - 1
        a = adj[v1]
        m2 = a & mask
        c1 = a | b
        # si: where the fifth vertex may lie (anywhere, if there is none)
        if not m2 or not (s1 := mask if any5 else mask & (a if o1 else ~c1)):
            continue
        while m2:
            b = m2 & -m2
            m2 ^= b
            v2 = b.bit_length() - 1
            a = adj[v2]
            c12 = c1 | a | b
            s2 = s1 if any5 else s1 & (a if o2 else ~(a | b))
            m3 = a & mask & ~c1 if s2 else 0
            while m3:
                b = m3 & -m3
                m3 ^= b
                v3 = b.bit_length() - 1
                a = adj[v3]
                s3 = s2 if any5 else s2 & (a if o3 else ~(a | b))
                m4 = a & mask & ~c12 if s3 else 0
                while m4:
                    b = m4 & -m4
                    m4 ^= b
                    v4 = b.bit_length() - 1
                    if any5:
                        return v1, v2, v3, v4
                    a = adj[v4]
                    m5 = s3 & (a if o4 else ~(a | b))
                    if m5:
                        return v1, v2, v3, v4, (m5 & -m5).bit_length() - 1
    return None


def find_induced(g: Graph, pattern: str) -> PatternWitness | None:
    """Find an induced P5, GEM or C5; None is an exhaustive-absence guarantee."""
    if pattern not in FIFTH:
        raise ValueError(f"unknown pattern {pattern!r}")
    hit = induced_p4(g, g.full_mask(), FIFTH[pattern])
    return PatternWitness(pattern, hit) if hit else None


def is_p5_gem_free(g: Graph) -> tuple[bool, PatternWitness | None]:
    """True iff the graph has neither an induced P5 nor an induced gem;
    else the lex-least witness of the first shape found.

    Neither shape has true twins (equal closed neighborhoods) or false
    twins (equal open ones), so the walks run on ``_twin_quotient``,
    leaving out isolated vertices, which lie in no copy: a clique blow-up
    shrinks to its quotient, and the witness is the whole graph's.
    """
    adj = g.adj
    quotient = _twin_quotient(adj, true_twin_classes(adj, (v for v in range(g.n) if adj[v])))
    for pattern in ("P5", "GEM"):
        if hit := induced_p4(g, quotient, FIFTH[pattern]):
            return False, PatternWitness(pattern, hit)
    return True, None


def _twin_quotient(adj, classes: list[list[int]]) -> int:
    """The first vertex of each of ``classes``, classes of true twins in
    the graph ``adj`` induces on their union, each in increasing order and
    ordered by first vertex, then the lowest of each class of false twins
    (equal open neighborhoods) among those, as a mask.

    A P4, P5 or gem has no two twins of either kind, so trading one of its
    vertices for a twin gives another copy.  The union thus holds one iff
    the mask does, and the lex-least copy in the union lies in the mask:
    trading a vertex for a lower twin would give a lower copy.  So
    ``induced_p4`` returns the same witness on either."""
    firsts = [c[0] for c in classes]
    within = mask_of(firsts)
    reps: dict[int, int] = {}
    for v in firsts:
        reps.setdefault(adj[v] & within, v)
    return mask_of(reps.values())


def _colors_at_least(adj: list[int], cand: int, need: int) -> bool:
    """True iff coloring ``cand`` greedily, one maximal independent class
    at a time lowest vertex first, takes ``need`` classes or more.  Fewer
    classes bound every clique inside ``cand`` below ``need``."""
    for _ in range(need):
        if not cand:
            return False
        free = cand
        while free:
            b = free & -free
            cand ^= b
            free = (free ^ b) & ~adj[b.bit_length() - 1]
    return True


def _maximal_cliques(adj, mask: int, least: int) -> Iterator[int]:
    """The maximal cliques of ``least`` or more vertices in the subgraph
    ``adj`` induces on ``mask``, as bitmasks in lexicographic order, by
    Bron-Kerbosch (CACM 1973) on an explicit stack.  A size sent in raises
    ``least`` for the rest of the search.

    There is no pivot.  A node (R, P, X) branches on the lowest vertex v
    of P: first R + v, with P and X cut down to v's neighbors, then the
    node itself with v moved from P to X.  So every clique found in the
    first branch holds v, and none in the second holds v or a vertex of P
    below it: the cliques come out in lex order.  The vertices of P that
    see the rest of P lie in every clique below the node; they all move
    to R at once, with X cut down to their common neighbors, which changes
    no clique and, since they are common to all, not their order.

    A vertex with fewer than ``least - 1`` neighbors in ``mask`` lies in
    no clique of ``least`` vertices and extends none, so it is dropped
    first.  A node is cut when R and P together have fewer than ``least``
    vertices, when R still needs three or more and a greedy coloring of P
    has fewer classes than that (Tomita, Tanaka & Takahashi, TCS 2006), or
    when a vertex of X sees all of P, so that no clique below is maximal.
    One pass over the rows of P finds both the vertices of X and those of
    P that see all of P but themselves.
    """
    p = mask if least < 2 else mask_of(v for v in bits(mask)
                                        if (adj[v] & mask).bit_count() >= least - 1)
    stack = [(0, 0, p, 0)]  # (|R|, R, P, X)
    while stack:
        size, r, p, x = stack.pop()
        need = least - size
        if p.bit_count() < need or need > 2 and not _colors_at_least(adj, p, need):
            continue
        common, rows = p | x, p  # what sees all of P, after the rows read so far
        while rows and common:
            b = rows & -rows
            common &= adj[b.bit_length() - 1] | b
            rows ^= b
        if common & x:
            continue
        if common:
            size += common.bit_count()
            r |= common
            p ^= common
            for u in bits(common):
                x &= adj[u]
        if not p:
            least = (yield r) or least
            continue
        b = p & -p
        a = adj[b.bit_length() - 1]
        stack.append((size, r, p ^ b, x | b))
        stack.append((size + 1, r | b, p & a, x & a))


def has_clique(g: Graph, mask: int, size: int) -> bool:
    """True iff the subgraph induced on ``mask`` has a clique of ``size``
    vertices."""
    return next(_maximal_cliques(g.adj, mask, size), None) is not None


def clique_number(g: Graph, mask: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with the lexicographically least maximum witness,
    of ``g`` or of the subgraph it induces on ``mask``.  One search raises
    its size past each clique it yields, so it yields the first clique
    larger than all before it, and the last is the first maximum clique."""
    search = _maximal_cliques(g.adj, g.full_mask() if mask is None else mask, 0)
    best = next(search)  # every graph, even the empty one, has a maximal clique
    with suppress(StopIteration):
        while True:
            best = search.send(best.bit_count() + 1)
    return best.bit_count(), tuple(bits(best))


def maximum_independent_set(g: Graph) -> tuple[int, ...]:
    """The lexicographically least maximum independent set, in increasing
    order: the least maximum clique of the complement, from the one clique
    search.  No engine path asks for one."""
    return clique_number(complement(g))[1]
