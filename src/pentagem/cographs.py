"""Cograph recognition, cotrees, and optimal cograph colorings.

A cograph (P4-free graph) decomposes recursively: a graph on >= 2 vertices
is a cograph iff it or its complement is disconnected, unions/joins of the
parts being the tree operations.  Cographs are perfect, so the cotree yields
an optimal coloring directly (union = reuse colors, join = disjoint colors).
The P4 witness of a non-cograph comes from ``patterns.induced_p4``, which
callers that only ask whether a vertex set is P4-free use directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistencyError, PreconditionError
from .graph import Graph, bits, component_masks
from .patterns import induced_p4

__all__ = [
    "CotreeNode",
    "CographCertificate",
    "is_cograph",
    "cotree_clique_number",
    "cograph_optimal_coloring",
    "cograph_coloring_with_palette",
]


@dataclass(frozen=True)
class CotreeNode:
    """Decomposition-tree node: leaves are vertices, internal nodes unions/joins."""

    kind: str  # "leaf" | "union" | "join"
    vertex: int | None = None
    children: tuple["CotreeNode", ...] = ()

    def vertex_mask(self) -> int:
        if self.kind == "leaf":
            return 1 << self.vertex
        m = 0
        for c in self.children:
            m |= c.vertex_mask()
        return m


@dataclass(frozen=True)
class CographCertificate:
    """Either a cotree witnessing P4-freeness or an induced-P4 witness."""

    tree: CotreeNode | None = None
    p4: tuple[int, int, int, int] | None = None

    @property
    def is_cograph(self) -> bool:
        return self.tree is not None


def is_cograph(g: Graph) -> CographCertificate:
    """Recognize P4-freeness; returns a cotree or an induced-P4 witness."""
    coadj = [(g.full_mask() & ~m) & ~(1 << v) for v, m in enumerate(g.adj)]

    def build(mask: int) -> CotreeNode | None:
        if mask.bit_count() == 1:
            return CotreeNode("leaf", vertex=mask.bit_length() - 1)
        comps = component_masks(g.adj, mask)
        if len(comps) > 1:
            kids = [build(c) for c in comps]
            if any(k is None for k in kids):
                return None
            return CotreeNode("union", children=tuple(kids))
        cocomps = component_masks(coadj, mask)
        if len(cocomps) > 1:
            kids = [build(c) for c in cocomps]
            if any(k is None for k in kids):
                return None
            return CotreeNode("join", children=tuple(kids))
        return None

    if g.n == 0:
        return CographCertificate(tree=CotreeNode("union", children=()))
    tree = build(g.full_mask())
    if tree is not None:
        return CographCertificate(tree=tree)
    p4 = induced_p4(g, g.full_mask())
    if p4 is None:
        raise InternalInconsistencyError(
            "graph is connected and co-connected yet no induced P4 found")
    return CographCertificate(p4=p4)


def cotree_to_graph(n: int, tree: CotreeNode) -> Graph:
    """Evaluate a cotree back to a graph on n vertices (test utility)."""
    adj = [0] * n

    def walk(node: CotreeNode) -> int:
        if node.kind == "leaf":
            return 1 << node.vertex
        masks = [walk(c) for c in node.children]
        if node.kind == "join":
            for i, mi in enumerate(masks):
                for j, mj in enumerate(masks):
                    if i == j:
                        continue
                    for v in bits(mi):
                        adj[v] |= mj
        total = 0
        for m in masks:
            total |= m
        return total

    walk(tree)
    return Graph(n, adj)


def cotree_clique_number(tree: CotreeNode) -> int:
    """Clique number over the cotree: union = max, join = sum."""
    if tree.kind == "leaf":
        return 1
    parts = [cotree_clique_number(c) for c in tree.children]
    return sum(parts) if tree.kind == "join" else max(parts)


def cograph_optimal_coloring(g: Graph, cert: CographCertificate) -> tuple[dict[int, int], int]:
    """Proper coloring of a cograph using exactly clique-number many colors."""
    if not cert.is_cograph:
        raise PreconditionError("certificate is not a decomposition tree")
    if cert.tree.vertex_mask() != g.full_mask():
        raise PreconditionError("certificate does not cover the graph")
    omega = cotree_clique_number(cert.tree)
    colors = cograph_coloring_with_palette(cert.tree, list(range(1, omega + 1)), {})
    return colors, omega


def cograph_coloring_with_palette(tree: CotreeNode, palette: list[int],
                                  fixed: dict[int, int]) -> dict[int, int]:
    """Color a cotree from an explicit palette, honoring fixed vertex colors.

    Requires len(palette) >= clique number of the tree, the fixed colors to
    be drawn from the palette, and fixed vertices in distinct join branches
    to carry distinct colors (always true when the fixed set is a clique
    colored injectively).  Used to lift a reduced-bag coloring back onto the
    whole bag without recoloring the retained clique.
    """
    out: dict[int, int] = {}

    def walk(node: CotreeNode, pal: tuple[int, ...]) -> None:
        if node.kind == "leaf":
            v = node.vertex
            c = fixed.get(v, pal[0])
            if c not in pal:
                raise PreconditionError(f"fixed color {c} outside palette for vertex {v}")
            out[v] = c
            return
        if node.kind == "union":
            for child in node.children:
                walk(child, pal)
            return
        # join: children need pairwise disjoint palettes sized to their cliques
        needs = [cotree_clique_number(c) for c in node.children]
        fixed_per: list[set[int]] = []
        for child in node.children:
            fc = {fixed[v] for v in bits(child.vertex_mask()) if v in fixed}
            fixed_per.append(fc)
        taken = set().union(*fixed_per) if fixed_per else set()
        spare = [c for c in pal if c not in taken]
        idx = 0
        for child, need, fc in zip(node.children, needs, fixed_per):
            sub = sorted(fc)
            while len(sub) < need:
                sub.append(spare[idx])
                idx += 1
            walk(child, tuple(sorted(sub)))

    if cotree_clique_number(tree) > len(palette):
        raise PreconditionError("palette smaller than the clique number")
    walk(tree, tuple(palette))
    return out
