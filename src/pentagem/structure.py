"""Quotient templates, expansion matching, and the clique-expansion reduction.

Eleven fixed templates are shipped: ten strict quotient graphs G1..G10 whose
members are the P4-free expansions (bags replace nodes, template edges become
complete bipartite connections, non-edges become empty ones), plus H, whose
seventh part A7 is special: its components are homogeneous sets whose outside
edges all land in A6.

The clique-expansion reduction keeps one maximum clique per reducible bag,
preserving both the clique number and the chromatic number; the companion
lift rebuilds a full coloring from a coloring of the reduced graph without
recoloring the retained cliques.  The solver needs neither: its copycat
rule leaves every reducible bag a clique.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cographs import (CographCertificate, cograph_coloring_with_palette,
                       is_cograph)
from .errors import PreconditionError
from .graph import (Graph, bits, build_graph, component_masks, induced_subgraph,
                    is_connected, mask_of)
from .patterns import clique_number

__all__ = [
    "Template",
    "TEMPLATES",
    "CLASS_ORDER",
    "maximal_homogeneous_cliques",
    "match_expansion",
    "check_bag_partition",
    "CliqueReduction",
    "clique_reduce",
    "lift_coloring",
]

COMPLETE, ANTI, FREE = 1, 0, 2


@dataclass(frozen=True)
class Template:
    """A quotient pattern: small graph plus the special-part annotations."""

    id: str
    nodes: tuple[str, ...]
    graph: Graph
    pendant: str | None = None  # node whose bag components hang off the anchor
    anchor: str | None = None   # the one node the pendant part may touch

    def relation(self, s: int, t: int) -> int:
        """Required relation between distinct bags s and t."""
        names = (self.nodes[s], self.nodes[t])
        if self.pendant is not None and self.pendant in names:
            other = names[0] if names[1] == self.pendant else names[1]
            return FREE if other == self.anchor else ANTI
        return COMPLETE if self.graph.has_edge(s, t) else ANTI


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


def _assert_no_adjacent_twins(t: Template) -> None:
    # Matching assigns whole homogeneous cliques to bags, which is complete
    # exactly because no template has two adjacent nodes with equal closed
    # neighborhoods (such twins would let one clique straddle two bags).
    g = t.graph
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v) and g.closed(u) == g.closed(v):
                raise AssertionError(f"template {t.id} has adjacent twins {u},{v}")


for _t in TEMPLATES.values():
    _assert_no_adjacent_twins(_t)


def maximal_homogeneous_cliques(g: Graph) -> list[tuple[int, ...]]:
    """Partition the vertices into maximal homogeneous cliques.

    A clique X is homogeneous iff all its members share one closed
    neighborhood, so the classes of the N[.] equivalence are exactly the
    maximal homogeneous cliques.  Ordered by smallest member.
    """
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.closed(v), []).append(v)
    return sorted((tuple(vs) for vs in groups.values()), key=lambda t: t[0])


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
        vs = bags[name]
        if not vs:
            problems.append(f"bag {name} is empty")
        m = mask_of(vs)
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
            rel = template.relation(i, j)
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
        sub, ids = induced_subgraph(g, bags[name])
        cert = is_cograph(sub)
        if not cert.is_cograph:
            w = tuple(ids[v] for v in cert.p4)
            problems.append(f"bag {name} induces a P4 {w}")
        if starred and name != template.anchor:
            whole = sub.full_mask()
            units = component_masks(sub.adj, whole) if name == template.pendant else [whole]
            for unit in units:
                if not sub.is_clique(bits(unit)):
                    problems.append(f"bag {name} is not in clique form")
                    break

    if template.pendant is not None:
        pm = masks[template.pendant]
        sub, ids = induced_subgraph(g, bags[template.pendant])
        for comp in component_masks(sub.adj, sub.full_mask()):
            cm = mask_of(ids[v] for v in bits(comp))
            outside = 0
            for v in bits(cm):
                outside |= g.adj[v] & ~cm
            for u in bits(outside):
                if g.adj[u] & cm != cm:
                    problems.append(
                        f"{template.pendant} component {tuple(bits(cm))} is not homogeneous")
                    break
        anchor_mask = masks[template.anchor]
        leak = 0
        for v in bits(pm):
            leak |= g.adj[v] & ~pm & ~anchor_mask
        if leak:
            problems.append(
                f"edges leave {template.pendant} toward non-{template.anchor} vertices")
    return problems


def match_expansion(g: Graph, template: Template) -> dict[str, tuple[int, ...]] | None:
    """Match ``g`` as an expansion of ``template``; exhaustive at desk scale.

    Backtracking assigns each maximal homogeneous clique to one template
    node (sound and complete: no such clique can straddle two bags).  The
    first solution of the fixed search order is returned, which makes the
    result deterministic; this is a documented stand-in for the global
    lexicographic minimum, which would require full enumeration.
    """
    if not is_connected(g):
        raise PreconditionError("expansion matching expects a connected graph")
    k = len(template.nodes)
    if g.n < k:
        return None
    pieces = maximal_homogeneous_cliques(g)
    if len(pieces) < k:
        return None
    order = sorted(range(len(pieces)), key=lambda i: (-len(pieces[i]), pieces[i][0]))
    reps = [p[0] for p in pieces]
    rel = [[template.relation(s, t) if s != t else -1 for t in range(k)] for s in range(k)]

    assign: list[int | None] = [None] * len(pieces)
    slot_count = [0] * k
    result: dict[str, tuple[int, ...]] | None = None

    def compatible(i: int, s: int) -> bool:
        ri = reps[i]
        for j, t in enumerate(assign):
            if t is None or j == i:
                continue
            if t == s:
                continue
            r = rel[s][t]
            if r == FREE:
                continue
            adj = g.has_edge(ri, reps[j])
            if (r == COMPLETE) != adj:
                return False
        return True

    def backtrack(idx: int) -> bool:
        nonlocal result
        if idx == len(order):
            bags = {name: [] for name in template.nodes}
            for j, t in enumerate(assign):
                bags[template.nodes[t]].extend(pieces[j])
            cand = {name: tuple(sorted(vs)) for name, vs in bags.items()}
            if check_bag_partition(g, template, cand):
                return False
            result = cand
            return True
        remaining = len(order) - idx
        if remaining < slot_count.count(0):
            return False
        i = order[idx]
        for s in range(k):
            if not compatible(i, s):
                continue
            assign[i] = s
            slot_count[s] += 1
            if backtrack(idx + 1):
                return True
            slot_count[s] -= 1
            assign[i] = None
        return False

    backtrack(0)
    return result


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
        sub, ids = induced_subgraph(g, bags[name])
        if name == template.pendant:
            unit_masks = component_masks(sub.adj, sub.full_mask())
        else:
            unit_masks = [sub.full_mask()]
        for um in unit_masks:
            unit = tuple(ids[v] for v in bits(um))
            usub, uids = induced_subgraph(g, unit)
            cert = is_cograph(usub)
            if not cert.is_cograph:
                raise PreconditionError(f"bag {name} fails the cograph check")
            _, witness = clique_number(usub)
            kept = tuple(uids[v] for v in witness)
            units.append((unit, kept))
    kept_all = set()
    for _, kc in units:
        kept_all.update(kc)
    if template.anchor is not None:
        kept_all.update(bags[template.anchor])
    star_bags = {}
    for name in template.nodes:
        star_bags[name] = tuple(v for v in bags[name] if v in kept_all)
    return CliqueReduction(tuple(sorted(kept_all)), star_bags, tuple(units))


def lift_coloring(g: Graph, reduction: CliqueReduction,
                  star_colors: dict[int, int]) -> dict[int, int]:
    """Extend a coloring of the reduced graph to the host, same palette.

    Each reducible unit is recolored by an optimal cograph coloring drawn
    from exactly the colors the reduced coloring placed on that unit's
    retained clique, pinned so retained vertices keep their colors.
    """
    out = dict(star_colors)
    for unit, kept in reduction.units:
        palette = sorted(star_colors[v] for v in kept)
        if len(set(palette)) != len(kept):
            raise PreconditionError("retained clique is not injectively colored")
        sub, ids = induced_subgraph(g, unit)
        pos = {v: i for i, v in enumerate(ids)}
        cert = is_cograph(sub)
        if not cert.is_cograph:
            raise PreconditionError("corrupted lift data: unit is not a cograph")
        fixed = {pos[v]: star_colors[v] for v in kept}
        sub_colors = cograph_coloring_with_palette(cert.tree, palette, fixed)
        for i, c in sub_colors.items():
            out[ids[i]] = c
    return out
