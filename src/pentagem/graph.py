"""Simple undirected graphs with bitmask adjacency.

Vertices are dense integer indices 0..n-1.  Adjacency is stored as one
Python-int bitmask per vertex, which makes neighborhood intersection,
containment and popcount tests cheap.  A connected
(P5, gem)-free graph of maximum degree 9 has at most 658 vertices; larger
inputs (unions of such graphs, or graphs that peel away entirely, like a
caterpillar of tens of thousands of vertices) are handled by searching
only near each removed piece (``seeded_component_masks``), not by
rebuilding subgraphs.  Graphs are immutable after construction and safe
to share.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import GraphFormatError

__all__ = [
    "Graph",
    "build_graph",
    "induced_subgraph",
    "join",
    "complement",
    "disjoint_union",
    "complete_graph",
    "empty_graph",
    "cycle_graph",
    "path_graph",
    "bits",
    "mask_of",
    "true_twin_classes",
    "component_masks",
    "seeded_component_masks",
    "connected_components",
    "is_connected",
]


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _mirrored_from_below(n: int, adj: tuple[int, ...]) -> bool:
    """True iff no mask has a loop or a vertex >= n, each neighbor u above v
    lists v, and those pairs account for half of all adjacency bits."""
    upper = 0
    for v, m in enumerate(adj):
        if m >> v & 1 or m.bit_length() > n:
            return False
        m >>= v + 1
        bit = 1 << v if m else 0
        while m:
            low = m & -m
            if not adj[v + low.bit_length()] & bit:
                return False
            upper += 1
            m ^= low
    return 2 * upper == sum(map(int.bit_count, adj))


class Graph:
    """Immutable simple graph.

    ``adj[v]`` is the open-neighborhood bitmask of ``v``.  The constructor
    asserts symmetry and irreflexivity, so every ``Graph`` in the system
    satisfies the core invariants by construction.  Symmetry is checked from
    each pair's lower end: each neighbor u above v must list v, and these
    pairs must be half of all adjacency bits; as each has its own mirror
    below, no entry below is then left unmirrored.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int]):
        adj = tuple(adj)
        if n < 0 or len(adj) != n:
            raise GraphFormatError(f"adjacency length {len(adj)} does not match n={n}")
        if not _mirrored_from_below(n, adj):
            # walk every entry in order, to name the first fault
            full = (1 << n) - 1
            for v, m in enumerate(adj):
                if m & (1 << v):
                    raise GraphFormatError(f"loop at vertex {v}")
                if m & ~full:
                    raise GraphFormatError(f"adjacency of {v} mentions vertices >= {n}")
                for u in bits(m):
                    if not adj[u] & (1 << v):
                        raise GraphFormatError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self.adj = adj

    # -- elementary queries -------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[v]))

    def closed(self, v: int) -> int:
        """Closed-neighborhood bitmask N[v]."""
        return self.adj[v] | (1 << v)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & (1 << v))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    @property
    def m(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.adj), default=0)

    def min_degree(self) -> int:
        return min((m.bit_count() for m in self.adj), default=0)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        vm = mask_of(vs)
        return all(self.adj[v] & vm == vm ^ (1 << v) for v in vs)

    def is_independent(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        vm = mask_of(vs)
        return all(not (self.adj[v] & vm) for v in vs)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse.

    Raises :class:`GraphFormatError` on out-of-range indices or loops.
    """
    if n < 0:
        raise GraphFormatError("vertex count must be nonnegative")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphFormatError(f"loop edge at {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``vertices`` plus the index map back to ``g``.

    Returns ``(sub, ids)`` where ``ids[i]`` is the vertex of ``g`` that became
    vertex ``i`` of ``sub``; ``ids`` is sorted, so the map is the order
    isomorphism of the chosen set onto 0..|S|-1.
    """
    ids = sorted(set(vertices))
    for v in ids:
        if not 0 <= v < g.n:
            raise GraphFormatError(f"vertex {v} not in graph of order {g.n}")
    pos = {v: i for i, v in enumerate(ids)}
    sel = mask_of(ids)
    adj = []
    for v in ids:
        m = 0
        for u in bits(g.adj[v] & sel):
            m |= 1 << pos[u]
        adj.append(m)
    return Graph(len(ids), adj), tuple(ids)


def join(a: Graph, b: Graph) -> Graph:
    """Join of two graphs: disjoint union plus all cross edges."""
    n = a.n + b.n
    bmask = ((1 << b.n) - 1) << a.n
    amask = (1 << a.n) - 1
    adj = [a.adj[v] | bmask for v in range(a.n)]
    adj += [(b.adj[v] << a.n) | amask for v in range(b.n)]
    return Graph(n, adj)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    adj = list(a.adj) + [m << a.n for m in b.adj]
    return Graph(a.n + b.n, adj)


def complement(g: Graph) -> Graph:
    """Complement graph, for ``maximum_independent_set``, generators and tests."""
    full = g.full_mask()
    return Graph(g.n, [(full & ~m) & ~(1 << v) for v, m in enumerate(g.adj)])


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full & ~(1 << v) for v in range(n)])


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphFormatError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def true_twin_classes(adj, vertices: Iterable[int]) -> list[list[int]]:
    """``vertices`` grouped by closed neighborhood in the graph ``adj``
    (classes of true twins), each class in the given order, the classes
    by their first vertex."""
    groups: dict[int, list[int]] = {}
    for v in vertices:
        groups.setdefault(adj[v] | 1 << v, []).append(v)
    return list(groups.values())


def component_masks(adj, mask: int) -> list[int]:
    """Connected components of the graph ``adj`` induces on ``mask``, as
    bitmasks ordered by smallest member; ``adj`` is any per-vertex list of
    neighborhood masks (a graph's, or its complement's)."""
    comps = []
    rest = mask
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v]
            frontier = nxt & mask & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def seeded_component_masks(adj, mask: int, seeds: int) -> list[int]:
    """``component_masks(adj, mask)`` for a ``mask`` each of whose components
    holds a vertex of ``seeds``, as after removing a piece from a connected
    graph with ``seeds`` the piece's neighbors.

    One seed means one component, found with no search.  A seed with no
    neighbor in ``mask`` is a component alone, and no other seed's
    component can reach it, so it is set aside before any search; the
    lowest seed's row is read only when another seed has a neighbor.  When
    at most one seed is left, its component is all of ``mask`` the
    isolated seeds do not take, as every component holds a seed.
    Otherwise one walk grows from the lowest live seed, one level at a
    time.  Once it has reached every live seed, the rest of ``mask`` is its
    component, so the largest component is never walked to its end; if its
    frontier empties first, what it reached is a component, and a new walk
    starts from the lowest live seed left.  Components are unique, so the
    list is the same whichever way each is found.
    """
    if not seeds & (seeds - 1):
        return [mask] if mask else []
    first = seeds & -seeds
    alone, done, live = 0, [], []
    for v in bits(seeds ^ first):
        if adj[v] & mask:
            live.append(1 << v)
        else:
            alone |= 1 << v
            done.append(1 << v)
    if live:
        if adj[first.bit_length() - 1] & mask:
            live.insert(0, first)
        else:
            alone |= first
            done.insert(0, first)
    if len(live) <= 1:  # the one seed left takes the rest, placed by its lowest vertex
        rest = mask & ~alone
        done.insert((alone & (rest & -rest) - 1).bit_count(), rest)
        return done
    left, rest = sum(live), mask & ~alone  # live seeds not yet reached, mask not yet split
    while True:
        reached = frontier = left & -left
        while frontier and left & ~reached:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v]
            frontier = nxt & rest & ~reached
            reached |= frontier
        left &= ~reached
        if not left:  # every live seed reached: what is left is one component
            done.append(rest)
            break
        done.append(reached)
        rest &= ~reached
    return sorted(done, key=lambda c: c & -c)


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Components as sorted vertex tuples, ordered by smallest member."""
    return [tuple(bits(c)) for c in component_masks(g.adj, g.full_mask())]


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1
