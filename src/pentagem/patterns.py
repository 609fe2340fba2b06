"""Exact detection of the small induced shapes the pipeline relies on.

Every shape searched for is an induced P4 v1-v2-v3-v4 plus at most one
vertex: the P4 itself (a cograph is P4-free), and P5, gem and C5, whose
fifth vertex's adjacency to v1..v4 is one row of ``FIFTH``.  One walk,
``induced_p4``, enumerates the P4s inside a host bitmask in lexicographic
order, so the first hit is the lexicographically smallest witness and an
exhausted walk is an exhaustive-absence guarantee.  ``is_p5_gem_free``
first walks one vertex of each twin class, since neither P5 nor gem has
two twins, and walks the whole graph only for the witness of a shape it
found there.

Cliques come from one iterative search, ``_lex_cliques``, which likewise
yields the lexicographically least clique of a given size inside a mask,
then of each larger size while one exists: ``find_clique`` and
``has_clique`` take its first answer, and ``clique_number`` its last.
Maximum independent sets come from ``mis_mask``, a branch and bound on an
explicit stack over a host's adjacency masks; no engine path runs it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .graph import Graph, bits, mask_of, true_twin_classes

__all__ = [
    "PatternWitness",
    "induced_p4",
    "find_induced",
    "is_p5_gem_free",
    "find_clique",
    "has_clique",
    "clique_number",
    "mis_mask",
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
    twins (equal open ones), so a copy may trade each vertex for one fixed
    vertex of its class.  The walks first run on one vertex of each class
    of true twins, then of false twins among those, leaving out isolated
    vertices, which lie in no copy: a clique blow-up shrinks to its
    quotient.  Only when they find a shape there do they run on the whole
    graph, for the witness.
    """
    adj = g.adj
    return _p5_gem_free(g, true_twin_classes(adj, (v for v in range(g.n) if adj[v])))


def _p5_gem_free(g: Graph, classes: list[list[int]]) -> tuple[bool, PatternWitness | None]:
    """``is_p5_gem_free(g)`` given the classes of true twins of ``g``, as
    ``true_twin_classes`` lists them; isolated vertices may be left out."""
    adj = g.adj
    firsts = [c[0] for c in classes]
    within = mask_of(firsts)
    reps: dict[int, int] = {}
    for v in firsts:
        reps.setdefault(adj[v] & within, v)
    quotient = mask_of(reps.values())
    if all(induced_p4(g, quotient, FIFTH[p]) is None for p in ("P5", "GEM")):
        return True, None
    for pattern in ("P5", "GEM"):
        w = find_induced(g, pattern)
        if w is not None:
            return False, w
    return True, None


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


def _lex_cliques(g: Graph, mask: int, size: int) -> Iterator[tuple[int, ...]]:
    """Yield the lexicographically least clique of ``size`` vertices inside
    ``mask``, then of ``size + 1``, and so on, up to the largest there is.

    A vertex with fewer than ``size - 1`` neighbors inside the mask lies in
    no such clique, so it is dropped first.  Cliques then grow in lex order
    on an explicit stack: each level takes its candidates (adjacent to the
    whole clique so far and later than its last vertex) lowest first and
    goes back up once fewer are left than the clique still needs, and a
    vertex is not entered when a greedy coloring of the candidates it
    leaves has fewer classes than the clique would still need after it
    (Carraghan & Pardalos, Oper. Res. Lett. 1990, with a coloring bound).
    Neither cut skips a clique of the size sought, so the first completed
    is the lex-least.  Everything passed over before it holds no clique of
    that size, hence none larger, so the walk goes on from it for the next
    size and one search finds them all.
    """
    adj = g.adj
    cand = mask_of(v for v in bits(mask) if (adj[v] & mask).bit_count() >= size - 1)
    clique: list[int] = []
    left: list[int] = []  # the candidates still to try at each level above
    while True:
        if len(clique) >= size:
            yield tuple(clique)
            size = len(clique) + 1
        need = size - len(clique)
        if cand.bit_count() >= need:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            nxt = cand & adj[v]
            if need < 3 or (nxt.bit_count() >= need - 1
                           and _colors_at_least(adj, nxt, need - 1)):
                clique.append(v)
                left.append(cand)
                cand = nxt
        elif clique:
            clique.pop()
            cand = left.pop()
        else:
            return


def find_clique(g: Graph, mask: int, size: int) -> tuple[int, ...] | None:
    """The lexicographically least clique of ``size`` vertices inside
    ``mask``; None if there is none."""
    return next(_lex_cliques(g, mask, size), None)


def has_clique(g: Graph, mask: int, size: int) -> bool:
    """True iff the subgraph induced on ``mask`` has a clique of ``size``
    vertices."""
    return find_clique(g, mask, size) is not None


def clique_number(g: Graph, mask: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with the lexicographically least maximum witness,
    of ``g`` or of the subgraph it induces on ``mask``: the last clique
    ``_lex_cliques`` yields."""
    best: tuple[int, ...] = ()
    for best in _lex_cliques(g, g.full_mask() if mask is None else mask, 0):
        pass
    return len(best), best


def _clique_cover_exceeds(adj, avail: int, limit: int) -> bool:
    """True iff a greedy partition of ``avail`` into cliques (each grown
    from the lowest vertex left, adding the lowest common neighbor) takes
    more than ``limit`` parts.  An independent set meets each part at most
    once, so otherwise ``limit`` bounds it."""
    count = 0
    while avail:
        if count >= limit:
            return True
        b = avail & -avail
        cand = adj[b.bit_length() - 1] & avail
        avail ^= b
        while cand:
            b = cand & -cand
            cand &= adj[b.bit_length() - 1]
            avail ^= b
        count += 1
    return False


def mis_mask(adj, mask: int) -> int:
    """A maximum independent set of the subgraph ``adj`` induces on
    ``mask``, as a bitmask, by deterministic branch and bound on an
    explicit stack.

    Each node branches on the vertex of highest degree inside its available
    set, ties to the higher id: first included, with its closed
    neighborhood discarded, then excluded.  The answer is the first largest
    leaf in that order, and a node is cut only when no leaf below it beats
    the best so far, so the cuts never drop that leaf.  A node whose
    available vertices are pairwise non-adjacent ends at once with all of
    them, the first and the only largest leaf below it.

    Once the include branch of v is done, a leaf that holds a true twin u
    of v (same closed neighborhood in the available set) is no larger than
    the best so far: swapping u for v gives a set the include branch
    covered.  Such twins are kept as ``spent`` below the exclude branch,
    and the cut bounds the rest of the available set by a greedy clique
    partition.  On a clique blow-up this ends the search at its first
    leaf, where a bound that counted the twins would walk every bag.
    """
    best = best_size = 0
    stack = [(0, 0, mask, 0)]  # (chosen, its size, available, spent) per node
    while stack:
        chosen, size, avail, spent = stack.pop()
        top = v = -1
        m = avail
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            d = (adj[u] & avail).bit_count()
            if d >= top:
                top, v = d, u
        if top <= 0:
            if size + avail.bit_count() > best_size:
                best, best_size = chosen | avail, size + avail.bit_count()
            continue
        if not _clique_cover_exceeds(adj, avail & ~spent, best_size - size):
            continue
        b = 1 << v
        near = (adj[v] | b) & avail
        twins = mask_of(u for u in bits(near) if (adj[u] | 1 << u) & avail == near)
        stack.append((chosen, size, avail ^ b, spent | twins))
        stack.append((chosen | b, size + 1, avail & ~near, spent))
    return best


def maximum_independent_set(g: Graph) -> tuple[int, ...]:
    """A maximum independent set in increasing order: ``mis_mask`` on the
    whole graph."""
    return tuple(bits(mis_mask(g.adj, g.full_mask())))
