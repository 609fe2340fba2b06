"""Reduction rules that shrink a graph while preserving extendability.

Each rule pairs a detector with an extension procedure: remove a configured
piece, color the rest (recursively, by the caller), then extend the coloring
back deterministically.  Also hosts the constructive Brooks coloring, the
hitting independent set (``hitting_mis``), and the reduction from large
maximum degree down to the base case of 9 (``delta_reduce``), the two that
``solve`` runs at Delta >= 10.  Brooks (``_brooks_by_degree``), the
hitting set and the reduction work on the subgraph a host's adjacency
masks induce on a vertex mask, with no induced copy, so the ``brooks``
trace step runs on the host graph directly; the last two are handed that
subgraph's maximum degree.  The cliques a hitting set must meet come from
``patterns._maximal_cliques``, the search behind every clique question.
"""

from __future__ import annotations

from itertools import combinations

from .coloring import Coloring, first_fit, list_color
from .errors import (InternalInconsistencyError, PreconditionError)
from .graph import Graph, bits, component_masks, mask_of, true_twin_classes
from .patterns import _maximal_cliques

__all__ = [
    "find_low_degree",
    "find_copycat",
    "check_copycat",
    "copy_colors",
    "copycat_extend",
    "find_d1_catalog",
    "extend_list_coloring",
    "bacso_tuza_bound",
    "hitting_mis",
    "brooks_color",
    "delta_reduce",
]


# -- low-degree rule ---------------------------------------------------------

def find_low_degree(g: Graph, k: int) -> int | None:
    """Smallest vertex with degree <= k-1, so greedy extension always fits."""
    for v in range(g.n):
        if g.degree(v) <= k - 1:
            return v
    return None


# -- copycat rule ------------------------------------------------------------

def find_copycat(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A reducible pair (A, B) of disjoint homogeneous cliques.

    Requires [A,B] empty, N(A) within N(B), and |A| <= |B|: then any coloring
    of G-A extends by giving A distinct colors already used on B.  Candidates
    are the maximal homogeneous cliques, which are the classes of true
    twins; shrinking A only grows its neighborhood and shrinking B never
    helps, so maximal classes suffice.
    """
    classes = true_twin_classes(g.adj, range(g.n))
    masks = [mask_of(c) for c in classes]
    nbhd = [g.adj[c[0]] & ~m for c, m in zip(classes, masks)]
    for i, a in enumerate(classes):
        for j, b in enumerate(classes):
            if i == j or len(a) > len(b):
                continue
            if masks[j] & g.closed(a[0]):
                continue  # adjacent or overlapping
            if nbhd[i] & ~nbhd[j]:
                continue
            return tuple(a), tuple(b)
    return None


def check_copycat(g: Graph, a: tuple[int, ...], b: tuple[int, ...]) -> None:
    """Raise PreconditionError unless coloring A with colors used on B extends
    every coloring of G-A: A and B are anticomplete cliques, |A| <= |B|,
    and every neighbor of A is adjacent to all of B, so its color differs
    from every color on B."""
    if len(a) > len(b):
        raise PreconditionError("copycat extension needs |A| <= |B|")
    if not g.is_clique(b) or not g.is_clique(a):
        raise PreconditionError("copycat sides must be cliques")
    am = mask_of(a)
    bm = mask_of(b)
    if am & bm or any(g.adj[v] & am for v in b):
        raise PreconditionError("copycat sides must be disjoint and anticomplete")
    outside = 0
    for v in a:
        outside |= g.adj[v] & ~am
    for u in bits(outside):
        if g.adj[u] & bm != bm:
            raise PreconditionError("N(A) must be complete to B")


def copy_colors(a: tuple[int, ...], b: tuple[int, ...], colors: dict[int, int]) -> None:
    """Give A, ascending, the |A| smallest colors ``colors`` holds on B, in place."""
    for v, c in zip(sorted(a), sorted(colors[u] for u in b)):
        colors[v] = c


def copycat_extend(g: Graph, a: tuple[int, ...], b: tuple[int, ...],
                   partial: dict[int, int]) -> dict[int, int]:
    """Extend a coloring of G-A by coloring A with colors used on B
    (checked by ``check_copycat``); A gets the |A| smallest B-colors."""
    check_copycat(g, a, b)
    out = dict(partial)
    copy_colors(a, b, out)
    return out


# -- d1-choosable catalog rule ------------------------------------------------

def _catalog_hubs(g: Graph, vs: tuple[int, ...]) -> int:
    """The hubs of ``vs``, its vertices adjacent to all the others, as a mask
    when ``vs`` induces a catalog shape, else 0: a triangle joined to three
    disjoint edges, or K4 joined to a 4-set with two disjoint non-edges."""
    size, adj = len(vs), g.adj
    m = mask_of(vs) if size in (8, 9) and all(0 <= v < g.n for v in vs) else 0
    if m.bit_count() != size:
        return 0
    hubs = mask_of(v for v in vs if (adj[v] & m).bit_count() == size - 1)
    rest = m & ~hubs
    if size == 9:  # a non-hub has degree 4 exactly when it has one neighbor among the six
        return hubs if rest.bit_count() == 6 and all(
            (adj[v] & rest).bit_count() == 1 for v in bits(rest)) else 0
    if rest.bit_count() != 4:
        return 0
    a, b, c, d = bits(rest)
    return hubs if any(not adj[p] >> q & 1 and not adj[r] >> s & 1
                       for p, q, r, s in ((a, b, c, d), (a, c, b, d), (a, d, b, c))) else 0


def _anchors(adj, n: int, need: int):
    """Triangles u < v < w in lexicographic order whose common neighborhood
    holds ``need`` or more vertices, each with that neighborhood's mask.
    It lies in the common neighborhood of u and v less w, so a pair with
    ``need`` or fewer common neighbors anchors none."""
    for u in range(n):
        for v in bits(adj[u] & (~0 << (u + 1))):
            uv = adj[u] & adj[v]
            if uv.bit_count() > need:
                for w in bits(uv & (~0 << (v + 1))):
                    if (common := uv & adj[w]).bit_count() >= need:
                        yield u, v, w, common


def _edges(adj, mask: int):
    """Edges a < b inside ``mask`` in lexicographic order, each with the
    vertices of ``mask`` above a that miss the closed neighborhoods of both."""
    for a in bits(mask):
        above = mask & (~0 << (a + 1))
        for b in bits(adj[a] & above):
            yield a, b, above & ~(adj[a] | adj[b])


def find_d1_catalog(g: Graph) -> tuple[int, ...] | None:
    """An induced member of the removable catalog, or None (exhaustive).

    Shapes: the 9-vertex K3 v 3K2, else the 8-vertex K4 v H with H on four
    vertices carrying two disjoint non-edges.  Anchored on triangles (six
    common neighbors) and K4s (four), in lexicographic order, whose common
    neighborhoods stay tiny under a degree bound.  The anchor is complete
    to the rest, so the shape tests reduce to the rest alone: three
    pairwise anticomplete edges, the first in lexicographic order, or the
    first 4-set that splits into two non-adjacent pairs.  A vertex of the
    six sees one other and at most the spares, so one with more than
    |common| - 5 common neighbors is dropped first, and the edges are
    walked depth first, each past those before it and missing their closed
    neighborhoods.  On such candidates these tests agree with
    ``_catalog_hubs``.
    """
    adj = g.adj
    for u, v, w, common in _anchors(adj, g.n, 6):
        slack = common.bit_count() - 5
        cand = mask_of(x for x in bits(common) if (adj[x] & common).bit_count() <= slack)
        if cand.bit_count() >= 6:
            for a, b, r1 in _edges(adj, cand):
                for c, d, r2 in _edges(adj, r1):
                    for e, f, _ in _edges(adj, r2):
                        return tuple(sorted((u, v, w, a, b, c, d, e, f)))
    for u, v, w, tri in _anchors(adj, g.n, 5):
        for x in bits(tri & (~0 << (w + 1))):
            common = tri & adj[x]
            if common.bit_count() < 4:
                continue
            for a, b, c, d in combinations(bits(common), 4):
                if any(not adj[p] >> q & 1 and not adj[r] >> s & 1
                       for p, q, r, s in ((a, b, c, d), (a, c, b, d), (a, d, b, c))):
                    return tuple(sorted((u, v, w, x, a, b, c, d)))
    return None


def extend_list_coloring(g: Graph, lists: dict[int, int]) -> dict[int, int]:
    """Color the catalog graph ``g`` induces on the keys of ``lists`` from
    those lists, bitmasks of colors: ``list_color``'s first assignment, in
    the order it was made, in ``g``'s vertex ids, cut on the shape's
    maximal cliques: its hubs joined to each edge and each isolated vertex
    of the rest, which is triangle-free.

    Requires |L(v)| >= d(v)-1 and the keys to induce one of the catalog
    shapes, for which a coloring is guaranteed to exist; exhausting the
    search therefore signals a bug or a non-catalog input, not an unlucky
    assignment.
    """
    vs = tuple(sorted(lists))
    if not (hubs := _catalog_hubs(g, vs)):
        raise PreconditionError("graph is not one of the catalog shapes")
    adj, mask = g.adj, mask_of(vs)
    for v in vs:
        if lists[v].bit_count() < (adj[v] & mask).bit_count() - 1:
            raise PreconditionError(f"list of vertex {v} below d(v)-1")
    rest = mask & ~hubs
    # an edge from both ends, an isolated vertex as an edge to itself
    cliques = {hubs | 1 << a | 1 << b for a in bits(rest) for b in list(bits(adj[a] & rest)) or [a]}
    assigned = list_color(adj, mask, lists, {}, cliques)
    if assigned is None:
        raise InternalInconsistencyError("catalog graph refused a d1-style list assignment")
    return assigned


# -- hitting independent set and Brooks ---------------------------------------

def bacso_tuza_bound(d: int) -> int:
    """The most vertices a connected P5-free graph of maximum degree ``d``
    can have.  It has a dominating clique or a dominating induced P3
    (Bacsó & Tuza, Period. Math. Hungar. 1990): a dominating clique of q
    vertices leaves room for q(d + 2 - q) vertices in all, a dominating P3
    for 3d - 1."""
    return max((d + 2) ** 2 // 4, 3 * d - 1)


def hitting_mis(g: Graph, mask: int, delta: int, cap: int) -> int:
    """A maximal independent set of the subgraph of ``g`` induced on
    ``mask``, whose maximum degree is ``delta``, that meets every clique of
    Delta-1 vertices, as a host bitmask.

    One enumeration per connected component of the maximal cliques of at
    least Delta-1 vertices, in lex order, decides everything: a clique of
    Delta vertices is a PreconditionError, worded with the exact clique
    number, and the cliques of Delta-1 vertices are the targets.  A search
    picks a vertex in each target, trying every choice, and then adds the
    lowest vertex left until none is, so the set dominates the mask and
    removing it lowers Delta.  With no target the fill alone answers.
    King's theorem (a stable set meets every maximum clique once omega >
    2(Delta+1)/3) says such a set exists from Delta = 6 on; below that a
    fruitless search is reported as an internal inconsistency rather than
    papered over.  The set is verified.

    The search runs on each component separately, always with ``delta - 1``
    as the target clique size: a component whose own maximum degree is
    lower can still hold such a clique.  Every clique lies inside one
    component, and a union of maximal independent sets of the components
    is maximal.  A component of more than ``cap`` vertices is an
    InternalInconsistencyError, raised before any search; degree reduction
    passes the Bacsó-Tuza bound of ``delta``.
    """
    comps = component_masks(g.adj, mask)
    for comp in comps:
        if comp.bit_count() > cap:
            raise InternalInconsistencyError(
                f"a connected component of {comp.bit_count()} vertices exceeds {cap}, "
                f"the Bacsó-Tuza bound on a P5-free graph of maximum degree {delta}")
    cliques = [list(_maximal_cliques(g.adj, comp, delta - 1)) for comp in comps]
    omega = max((c.bit_count() for cs in cliques for c in cs), default=0)
    if omega >= delta:
        raise PreconditionError(f"clique number {omega} exceeds {delta - 1}")
    found = 0
    for comp, targets in zip(comps, cliques):
        found |= _hitting_component(g.adj, comp, targets)
    return found


def _hitting_component(adj, comp: int, targets: list[int]) -> int:
    """Maximal independent set of the connected subgraph ``adj`` induces on
    ``comp`` that meets every clique of ``targets``, as a bitmask.

    The search takes a vertex of the live target (a clique no chosen
    vertex meets yet) with the fewest available vertices, ties to the
    earlier target, and tries its available vertices lowest first, depth
    first on an explicit stack; a node whose live target has no available
    vertex is dead.  Once every target is hit it adds the lowest available
    vertex until none is left.
    """
    stack = [(0, comp, targets)]  # (chosen, available, unhit) of nodes to visit
    while stack:
        chosen, avail, unhit = stack.pop()
        live = [t for t in unhit if not t & chosen]
        if live:
            t = min(live, key=lambda t: (t & avail).bit_count())
            stack.extend((chosen | 1 << v, avail & ~adj[v] & ~(1 << v), live)
                         for v in reversed(list(bits(t & avail))))
            continue
        while avail:
            b = avail & -avail
            chosen |= b
            avail &= ~adj[b.bit_length() - 1] & ~b
        # verify the hitting property against the full enumeration
        if not all(t & chosen for t in targets):
            raise InternalInconsistencyError("hitting verification failed")
        return chosen
    raise InternalInconsistencyError("no independent set hits every (Delta-1)-clique")


def _connected_without(adj, mask: int, removed: int) -> bool:
    rest = mask & ~removed
    return not rest or _order_toward_root(adj, rest, (rest & -rest).bit_length() - 1)[1] == rest


def _order_toward_root(adj, mask: int, root: int) -> tuple[list[int], int]:
    """The vertices of ``mask`` reached from ``root`` inside it, by decreasing
    BFS distance (ties to the lower id, root last), and their mask, the
    component of ``root``; every non-root vertex keeps one neighbor later."""
    layers = []
    seen = frontier = 1 << root
    while frontier:
        layers.append(layer := list(bits(frontier)))
        nxt = 0
        for v in layer:
            nxt |= adj[v]
        frontier = nxt & mask & ~seen
        seen |= frontier
    return [v for layer in reversed(layers) for v in layer], seen


def _brooks_component(adj, comp: int, delta: int) -> dict[int, int]:
    """Color the connected delta-regular subgraph ``adj`` induces on
    ``comp``, which is not complete, with at most ``delta`` >= 3 colors."""
    colors: dict[int, int] = {}
    cut = next((v for v in bits(comp) if not _connected_without(adj, comp, 1 << v)), None)
    if cut is not None:
        # color each side with the cut, then swap two colors on later sides
        # so the cut keeps the color the first side gave it
        for side in component_masks(adj, comp & ~(1 << cut)):
            part = side | 1 << cut
            local: dict[int, int] = {}
            first_fit(adj, _order_toward_root(adj, part, cut)[0], delta, local)
            have = local[cut]
            want = colors.get(cut, have)
            swap = {have: want, want: have}
            for v, c in local.items():
                colors[v] = swap.get(c, c)
        return colors
    # 2-connected, regular, not complete: classic two-neighbor trick
    for x in bits(comp):
        for u, w in combinations(bits(adj[x] & comp), 2):
            pair = 1 << u | 1 << w
            if adj[u] & pair or not _connected_without(adj, comp, pair):
                continue
            colors = {u: 1, w: 1}
            first_fit(adj, _order_toward_root(adj, comp & ~pair, x)[0], delta, colors)
            return colors
    raise InternalInconsistencyError("Brooks case analysis fell through")


def _delta_and_low(adj, mask: int) -> tuple[int, int]:
    """The maximum degree of the subgraph ``adj`` induces on ``mask``, and
    the mask of its vertices of lower degree, from one walk over ``mask``."""
    delta = low = 0
    for v in bits(mask):
        d = (adj[v] & mask).bit_count()
        if d > delta:
            delta, low = d, mask & ~(~0 << v)  # every vertex before v is lower
        elif d < delta:
            low |= 1 << v
    return delta, low


def _brooks_by_degree(adj, mask: int, delta: int, low: int, colors: dict[int, int]) -> None:
    """Write ``brooks_color``'s coloring of the subgraph ``adj`` induces on
    ``mask`` into ``colors``, given ``_delta_and_low(adj, mask)``.  The
    walk from the lowest low vertex no earlier walk reached finds its
    component and orders it for first-fit; only the rest, the delta-regular
    components, is split into components.  The parts merge in order of
    their lowest vertex."""
    if delta < 3:
        raise PreconditionError("Brooks coloring requires maximum degree >= 3")
    parts, rest = {}, mask
    while low:
        order, comp = _order_toward_root(adj, mask, (low & -low).bit_length() - 1)
        first_fit(adj, order, delta, parts.setdefault(comp & -comp, {}))
        rest, low = rest & ~comp, low & ~comp
    for comp in component_masks(adj, rest) if rest else ():
        if comp.bit_count() == delta + 1:
            raise PreconditionError("component is the complete graph on Delta+1 vertices")
        parts[comp & -comp] = _brooks_component(adj, comp, delta)
    for first in sorted(parts):
        colors.update(parts[first])


def brooks_color(g: Graph) -> Coloring:
    """Proper coloring with colors 1..Delta (Delta >= 3, no K_{Delta+1}).

    Each component is colored on its own, always with the whole graph's
    Delta: first-fit toward a root of degree below Delta; else, in a
    Delta-regular component, side by side around its first cut vertex;
    else by the two-neighbor trick (Lovász 1975).  Ids are only compared,
    so the coloring of a copy numbered in the same order is the same.
    """
    full = g.full_mask()
    delta, low = _delta_and_low(g.adj, full)
    colors: dict[int, int] = {}
    _brooks_by_degree(g.adj, full, delta, low, colors)
    return Coloring(colors, delta)


# -- reduction to maximum degree 9 --------------------------------------------

def delta_reduce(host: Graph, mask: int, delta: int, color_base, trace: list | None
                 ) -> dict[int, int]:
    """Color the subgraph of ``host`` induced on ``mask``, of maximum degree
    ``delta``, with Delta-1 colors by peeling hitting independent sets; the
    coloring is in host vertices.  ``color_base(rest)`` colors a Delta = 9
    rest, given as a host bitmask, with 8 colors (the solver's base case).

    Each level extracts a maximal independent set meeting every large
    clique, ``hitting_mis`` of the current mask with its components capped
    at ``bacso_tuza_bound`` of the level's Delta, so every vertex left
    loses a neighbor; a component over the cap has an induced P5.  One
    loop runs the levels on host masks, with no induced copy: each pushes
    its set and Delta on a stack and goes on with the rest until the
    degree drops by 2 or more or reaches 9.  The terminal then colors the
    rest, greedy when the degree dropped by 3 or more and Brooks when by
    2, through ``trace.run_step``, the apply replay runs, or else
    ``color_base`` does, and the stack is emptied innermost level first,
    one new color on each set in a ``delta_set`` step.  The degrees inside
    the mask are counted once and kept as bit planes across the levels: a
    peeled vertex lowers all its neighbors' degrees with a few mask
    operations, and the new maximum is read off the planes, so no level
    recounts the rest.
    """
    from .trace import run_step  # trace imports this module

    adj = host.adj
    # the degrees in mask, bit-sliced: bit v of planes[j] is bit j of v's
    # degree, so peeling p takes one from all its neighbors at once
    planes = [0] * delta.bit_length()
    for v in bits(mask):
        for j in bits((adj[v] & mask).bit_count()):
            planes[j] |= 1 << v
    levels: list[tuple[int, int]] = []
    colors: dict[int, int] = {}
    while delta > 9:
        peeled = hitting_mis(host, mask, delta, bacso_tuza_bound(delta))
        levels.append((peeled, delta))
        mask &= ~peeled
        for p in bits(peeled):
            borrow = adj[p] & mask
            for j, plane in enumerate(planes):
                planes[j] = plane ^ borrow
                borrow &= ~plane
        # the maximum degree, high bit first, among the vertices still tied
        d_sub, top = 0, mask
        for j in reversed(range(len(planes))):
            if top & planes[j]:
                top &= planes[j]
                d_sub |= 1 << j
        if d_sub > delta - 1:
            raise InternalInconsistencyError("removing a maximal independent set "
                                             "failed to lower the maximum degree")
        if d_sub <= delta - 3:
            run_step("greedy", {"vs": tuple(bits(mask)), "k": delta - 2}, host, colors, trace)
            break
        if d_sub == delta - 2:
            run_step("brooks", {"vs": tuple(bits(mask)), "delta": d_sub}, host, colors, trace)
            break
        delta = d_sub
    else:
        colors = color_base(mask)
    # a delta_set reads no graph, so none is passed
    for peeled, delta in reversed(levels):
        run_step("delta_set", {"i_set": tuple(bits(peeled)), "color": delta - 1},
                 None, colors, trace)
    return colors
