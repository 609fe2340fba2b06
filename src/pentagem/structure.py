"""Quotient templates, expansion matching, and the clique-expansion reduction.

Eleven fixed templates are shipped: ten strict quotient graphs G1..G10 whose
members are the P4-free expansions (bags replace nodes, template edges become
complete bipartite connections, non-edges become empty ones), plus H, whose
seventh part A7 is special: its components are homogeneous sets whose outside
edges all land in A6.

Matching assigns the graph's maximal proper modules (vertex sets that each
outside vertex sees all or none of) to template nodes, since every bag is a
union of them, and ``check_bag_partition`` verifies the result.
``match_expansion`` is handed the modules for each template it tries.
``classify`` first hands it the twin classes, which are the modules of
every graph a spare-free template matches, and calls ``maximal_modules``
only when none of those templates matches them.

The clique-expansion reduction keeps the lex-least maximum clique of each
reducible bag, preserving both the clique number and the chromatic number;
the companion lift rebuilds a full coloring from a coloring of the reduced
graph without recoloring the retained cliques.  Both work on the host
through each bag's vertex mask, with no induced copy and no cotree.  The
solver needs neither: its copycat rule leaves every reducible bag a clique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .cographs import cograph_coloring_with_palette
from .errors import GraphFormatError, PreconditionError
from .graph import Graph, bits, build_graph, component_masks, mask_of, true_twin_classes
from .patterns import _twin_quotient, clique_number, induced_p4

__all__ = [
    "Template",
    "TEMPLATES",
    "CLASS_ORDER",
    "maximal_modules",
    "match_expansion",
    "check_bag_partition",
    "CliqueReduction",
    "clique_reduce",
    "lift_coloring",
]

COMPLETE, ANTI, FREE = 1, 0, 2


@dataclass(frozen=True)
class Template:
    """A quotient pattern: small graph plus the special-part annotations.

    Its tables are built once, with the template: ``rel[s][t]`` is
    ``relation(s, t)``, and ``ok[see][t]`` masks the nodes a module may
    take beside one at node t that it sees (``see`` COMPLETE) or misses
    (ANTI).  Only the anchor and the pendant, the ``spare`` nodes, may
    take several modules.
    """

    id: str
    nodes: tuple[str, ...]
    graph: Graph
    pendant: str | None = None  # node whose bag components hang off the anchor
    anchor: str | None = None   # the one node the pendant part may touch
    rel: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    ok: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    spare: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes, k = self.nodes, len(self.nodes)

        def relation(s: int, t: int) -> int:
            names = (nodes[s], nodes[t])
            if self.pendant in names:
                other = names[0] if names[1] == self.pendant else names[1]
                return FREE if other == self.anchor else ANTI
            return COMPLETE if self.graph.has_edge(s, t) else ANTI

        rel = tuple(tuple(relation(s, t) for t in range(k)) for s in range(k))
        spare = mask_of(nodes.index(x) for x in (self.anchor, self.pendant) if x)
        ok = tuple(tuple(mask_of(s for s in range(k) if (spare >> s & 1 if s == t else
                                                          rel[s][t] in (see, FREE)))
                         for t in range(k)) for see in (ANTI, COMPLETE))
        for name, value in (("rel", rel), ("ok", ok), ("spare", spare)):
            object.__setattr__(self, name, value)


def _template(tid: str, prefix: str, n: int, edges: list[tuple[int, int]],
              pendant: str | None = None, anchor: str | None = None) -> Template:
    nodes = tuple(f"{prefix}{i}" for i in range(1, n + 1))
    g = build_graph(n, [(u - 1, v - 1) for u, v in edges])
    return Template(tid, nodes, g, pendant, anchor)


_G8_EDGES = [(4, 6), (3, 4), (2, 3), (1, 2), (1, 5), (4, 5), (4, 7),
             (2, 7), (3, 8), (1, 8), (1, 6), (6, 7), (5, 8), (7, 8)]

TEMPLATES: dict[str, Template] = {
    "G1": _template("G1", "Q", 5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
    "G2": _template("G2", "Q", 6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
                                   (1, 6), (3, 6), (4, 6)]),
    "G3": _template("G3", "Q", 7, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
                                   (4, 6), (1, 6), (4, 7), (2, 7), (6, 7)]),
    "G4": _template("G4", "Q", 7, [(2, 3), (3, 4), (4, 5), (2, 5), (3, 7),
                                   (6, 7), (2, 6), (5, 6), (4, 7), (1, 2), (1, 4)]),
    "G5": _template("G5", "Q", 8, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
                                   (4, 8), (1, 8), (3, 8), (4, 6), (6, 7),
                                   (3, 7), (1, 6), (1, 7)]),
    "G6": _template("G6", "Q", 8, [(3, 4), (2, 3), (1, 2), (3, 6), (5, 6),
                                   (1, 5), (1, 8), (4, 8), (4, 7), (6, 7),
                                   (2, 7), (7, 8), (1, 6), (4, 5)]),
    "G7": _template("G7", "Q", 8, [(2, 5), (2, 3), (3, 7), (5, 7), (2, 6),
                                   (6, 8), (5, 8), (7, 8), (3, 6), (4, 5),
                                   (3, 4), (1, 7), (1, 2)]),
    "G8": _template("G8", "Q", 8, _G8_EDGES),
    "G9": _template("G9", "Q", 9, _G8_EDGES + [(1, 9), (4, 9)]),
    "G10": _template("G10", "Q", 9, _G8_EDGES + [(5, 9), (6, 9), (3, 9), (2, 9)]),
    # A1..A6 carry the same solid pattern as G2; A7 hangs off A6.
    "H": _template("H", "A", 7, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
                                 (1, 6), (3, 6), (4, 6)],
                   pendant="A7", anchor="A6"),
}

# G8 is G6 with Q6 and Q8 swapped, so G6 always matches first; the G8
# template stays, as G9 and G10 extend it
CLASS_ORDER = ("G1", "G2", "G3", "G4", "G5", "G6", "G7", "G9", "G10", "H")


def _closure(adj, s: int, within: int) -> int:
    """The smallest module holding the vertex set ``s`` in the graph
    ``adj`` induces on ``within``: add every vertex of ``within`` that
    splits it (sees some but not all of it) until none does.  It walks
    each vertex of the module it returns once, so on a mask of one vertex
    per class of true twins it walks at most one vertex per class."""
    some, every, new = 0, -1, s
    while new:
        for x in bits(new):
            some |= adj[x]
            every &= adj[x]
        new = some & ~every & within & ~s
        s |= new
    return s


# a prime quotient is what makes each bag of G1..G10 one maximal module
for _t in TEMPLATES.values():
    _g, _full = _t.graph, _t.graph.full_mask()
    if _t.pendant is None and any(_closure(_g.adj, 1 << u | 1 << v, _full) != _full
                                  for u in range(_g.n) for v in range(u)):
        raise AssertionError(f"template {_t.id} is not prime")


def maximal_modules(g: Graph) -> list[tuple[int, ...]]:
    """The maximal proper modules of ``g``, in matching order: by each one's
    largest homogeneous clique, larger first, ties to the smaller vertex.

    Vertex u joins v's module when the smallest module holding both is not
    the whole graph.  That finds the maximal proper modules whenever they
    are disjoint, as when ``g`` and its complement are both connected;
    otherwise each set found is still a proper module.

    The greedy runs on one representative per class of true twins (equal
    closed neighborhoods), in the host's own adjacency: each class is a
    module, so the modules that are unions of classes are those of the
    graph induced on the representatives, and each one found there is
    expanded back to its classes.  The result is the one the same greedy
    gives when it grows from every vertex.  The smallest module holding a
    union of classes is a union of classes, and a module holding a vertex
    but not its twin t stays a module with t added; so growing from every
    vertex splits a class only where a module grows to all vertices but
    one universal vertex whose twin it holds.  The universal vertices,
    which form one class, therefore each represent themselves.

    A graph ``classify`` matches has no universal vertex.  A connected
    graph with an induced C5 whose complement is disconnected is a join
    A + B with the C5 inside A, and any vertex of B with a P4 of the C5 is
    a gem.  So every graph it passes on has a prime root, its maximal
    proper modules are disjoint, and each twin class lies inside one of
    them.
    """
    adj, full = g.adj, g.full_mask()
    classes = true_twin_classes(adj, range(g.n))
    members = {c[0]: mask_of(c) for c in classes}
    rank = {c[0]: i for i, c in enumerate(sorted(classes, key=lambda c: (-len(c), c[0])))}
    # the universal vertices, one class if any, each represent themselves
    universal = next((c for c in classes if adj[c[0]] | 1 << c[0] == full), ())
    for v in universal:
        members[v], rank[v] = 1 << v, rank[universal[0]]
    reps = left = mask_of(members)
    found = []
    while left:
        m = left & -left
        for u in bits(left & ~m):
            if not m >> u & 1 and (grown := _closure(adj, m | 1 << u, reps)) != reps:
                m = grown
        found.append(m)
        left &= ~m
    found.sort(key=lambda m: min(map(rank.get, bits(m))))
    return [tuple(bits(reduce(int.__or__, map(members.get, bits(m))))) for m in found]


def check_bag_partition(g: Graph, template: Template,
                        bags: dict[str, tuple[int, ...]],
                        starred: bool = False) -> list[str]:
    """Independent constraint checker; returns a list of violations."""
    problems: list[str] = []
    names = template.nodes
    if set(bags) != set(names):
        return [f"bag keys {sorted(bags)} do not match template {template.id}"]
    masks = {}
    covered = 0
    for name in names:
        if not bags[name]:
            problems.append(f"bag {name} is empty")
        m = mask_of(bags[name])
        if m & covered:
            problems.append(f"bag {name} overlaps another bag")
        covered |= m
        masks[name] = m
    if covered != g.full_mask():
        problems.append("bags do not cover the vertex set")
    if problems:
        return problems

    for i, a in enumerate(names):
        for j in range(i + 1, len(names)):
            b = names[j]
            rel = template.rel[i][j]
            if rel == FREE:
                continue
            for v in bags[a]:
                inter = g.adj[v] & masks[b]
                if rel == COMPLETE and inter != masks[b]:
                    problems.append(f"[{a},{b}] not complete (vertex {v})")
                    break
                if rel == ANTI and inter:
                    problems.append(f"[{a},{b}] not anticomplete (vertex {v})")
                    break

    for name in names:
        m = masks[name]
        # the bag's lex-least P4, walked on one vertex per class of twins
        if p4 := induced_p4(g, _twin_quotient(g.adj, true_twin_classes(g.adj, bits(m)))):
            problems.append(f"bag {name} induces a P4 {p4}")
        if starred and name != template.anchor:
            units = component_masks(g.adj, m) if name == template.pendant else [m]
            if any(g.adj[v] & u != u ^ (1 << v) for u in units for v in bits(u)):
                problems.append(f"bag {name} is not in clique form")

    # an edge from the pendant to a bag but the anchor broke a relation above
    if template.pendant is not None:
        for cm in component_masks(g.adj, masks[template.pendant]):
            outside = reduce(int.__or__, (g.adj[v] for v in bits(cm)), 0) & ~cm
            if any(g.adj[u] & cm != cm for u in bits(outside)):
                problems.append(
                    f"{template.pendant} component {tuple(bits(cm))} is not homogeneous")
    return problems


def match_expansion(g: Graph, template: Template, modules: list[tuple[int, ...]]
                    ) -> dict[str, tuple[int, ...]] | None:
    """Match the connected graph ``g``, whose maximal proper modules are
    ``modules`` (as ``maximal_modules(g)`` lists them), as an expansion of
    ``template``; None when it is not one.

    Every bag is a module, and no proper module meets two bags.  For
    G1..G10 the quotient is prime (checked at import): the bags a module
    meets form a module of it, so a module meeting two meets all, and a
    vertex of a bag it misses in part would see all or none of the rest.
    In H a module meeting A7 and another bag meets a second bag of A1..A6
    (that bag's vertices have neighbors in A1..A5, which A7 misses), and
    one meeting two bags of A1..A6 (a G2 expansion) holds them all and
    then each A7 vertex, which sees A6 but not A1.  So each bag of
    G1..G10, and A1..A5 of H, is one maximal proper module, and A6 and A7
    take any number of them.

    For G1..G10 one vertex of each module then induces the template
    graph, so a module quotient whose sorted degrees differ from the
    template's ends the match before any search.  A search assigns nodes
    to modules, taking modules in the order of their largest homogeneous
    clique and nodes in ascending order.  It prunes only assignments that
    no partition ``check_bag_partition`` accepts can extend, and returns
    the first partition that check accepts.  Each maximal homogeneous
    clique lies in one module, so a search over those cliques in the same
    order would return the same one.
    """
    k, full = len(template.nodes), (1 << len(template.nodes)) - 1
    spare, ok = template.spare, template.ok
    if len(modules) < k or (len(modules) > k and not spare):
        return None
    reps = [m[0] for m in modules]
    within = mask_of(reps)
    # with no spare node each module is one bag, so one vertex per module
    # induces the template graph, and its degrees must be the template's
    if not spare and (sorted((g.adj[r] & within).bit_count() for r in reps)
                      != sorted(template.graph.degree_sequence())):
        return None

    def search(assign: list[int], nodes: list[int], empty: int):
        """Give module ``len(assign)`` onward nodes, module j one of the mask
        ``nodes[j - len(assign)]``; ``empty`` masks the nodes still bare."""
        i = len(assign)
        if i == len(modules):
            bags = {name: tuple(sorted(v for m, s in zip(modules, assign) if s == t
                                       for v in m)) for t, name in enumerate(template.nodes)}
            return None if check_bag_partition(g, template, bags) else bags
        for s in bits(nodes[0]):
            rest = [d & ok[COMPLETE if g.has_edge(reps[i], reps[j]) else ANTI][s]
                    for j, d in enumerate(nodes[1:], i + 1)]
            bare = empty & ~(1 << s)
            if all(rest) and not bare & ~reduce(int.__or__, rest, 0):
                found = search(assign + [s], rest, bare)
                if found is not None:
                    return found
        return None

    return search([], [full] * len(modules), full)


@dataclass(frozen=True)
class CliqueReduction:
    """Data for one clique-expansion reduction and its coloring lift.

    ``units`` holds (unit vertices, retained maximum clique) pairs, one per
    reducible bag (and one per pendant-part component); the anchor bag of H
    is exempt and appears in no unit.  All vertex ids refer to the host.
    """

    kept: tuple[int, ...]
    star_bags: dict[str, tuple[int, ...]]
    units: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def clique_reduce(g: Graph, template: Template,
                  bags: dict[str, tuple[int, ...]]) -> CliqueReduction:
    """Shrink every reducible bag to one maximum clique of that bag.

    The reduced graph (induced on ``kept``) has the same clique number and
    chromatic number as the host: validated against the oracle in tests.
    The retained clique is the lexicographically least maximum clique.
    """
    problems = check_bag_partition(g, template, bags)
    if problems:
        raise PreconditionError("invalid bag partition: " + "; ".join(problems))
    units: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for name in template.nodes:
        if name == template.anchor:
            continue
        m = mask_of(bags[name])
        # a unit is a bag or a pendant component, a cograph as checked above
        for um in component_masks(g.adj, m) if name == template.pendant else [m]:
            units.append((tuple(bits(um)), clique_number(g, um)[1]))
    kept_all = {v for _, kc in units for v in kc} | set(bags.get(template.anchor, ()))
    star_bags = {name: tuple(v for v in bags[name] if v in kept_all)
                 for name in template.nodes}
    return CliqueReduction(tuple(sorted(kept_all)), star_bags, tuple(units))


def lift_coloring(g: Graph, reduction: CliqueReduction,
                  star_colors: dict[int, int]) -> dict[int, int]:
    """Extend a coloring of the reduced graph to the host, same palette.

    Each reducible unit is recolored on the host, through its vertex mask,
    by an optimal cograph coloring drawn from exactly the colors the reduced
    coloring placed on that unit's retained clique, pinned so retained
    vertices keep their colors.
    """
    out = dict(star_colors)
    for unit, kept in reduction.units:
        palette = sorted(star_colors[v] for v in kept)
        if len(set(palette)) != len(kept):
            raise PreconditionError("retained clique is not injectively colored")
        if outside := [v for v in unit if not 0 <= v < g.n]:
            raise GraphFormatError(f"vertex {min(outside)} not in graph of order {g.n}")
        if not set(kept) <= set(unit) or not g.is_clique(kept):
            raise PreconditionError("retained vertices are not a clique of their unit")
        out.update(cograph_coloring_with_palette(g, mask_of(unit), palette,
                                                 {v: star_colors[v] for v in kept}))
    return out
