"""Cograph recognition and optimal cograph colorings, on host vertex masks.

A cograph (P4-free graph) splits all the way down: a part of >= 2 vertices
is a cograph iff it or its complement is disconnected, and then each
component, or each co-component, is again a cograph (Corneil, Perl &
Stewart, SIAM J. Comput. 1985).  ``cograph_split`` makes that split on an
explicit stack, so no part's depth costs a Python frame.  Cographs are
perfect, so the split yields an optimal coloring directly: a union's
children reuse its colors, a join's take disjoint palettes sized by their
clique numbers.  The P4 witness of a non-cograph comes from
``patterns.induced_p4``.
"""

from __future__ import annotations

from typing import Iterator

from .errors import PreconditionError
from .graph import Graph, bits, component_masks

__all__ = [
    "cograph_split",
    "is_cograph",
    "cograph_optimal_coloring",
    "cograph_coloring_with_palette",
]


def cograph_split(g: Graph, mask: int) -> Iterator[tuple[int, str | None, list[int]]]:
    """Split the subgraph of ``g`` induced on ``mask`` into parts, yielding
    each as ``(part, kind, children)``, parents before children and children
    in smallest-member order.

    A part is a ``"leaf"`` (one vertex), a ``"union"`` of its components, a
    ``"join"`` of its co-components, or ``None`` when it and its complement
    are both connected: then it holds an induced P4 and is not split.
    """
    coadj = {v: ~g.adj[v] for v in bits(mask)}  # v's own bit: already in its part
    stack = [mask] if mask else []
    while stack:
        part = stack.pop()
        kind, kids = "leaf", []
        if part & part - 1:
            kind, kids = "union", component_masks(g.adj, part)
            if len(kids) == 1:
                kids = component_masks(coadj, part)
                kind = "join" if len(kids) > 1 else None
        yield part, kind, kids
        if kind:
            stack.extend(reversed(kids))


def is_cograph(g: Graph, mask: int | None = None) -> bool:
    """True iff ``g``, or the subgraph it induces on ``mask``, is P4-free."""
    return all(kind for _, kind, _ in cograph_split(g, g.full_mask() if mask is None else mask))


def cograph_optimal_coloring(g: Graph) -> tuple[dict[int, int], int]:
    """Proper coloring of a cograph with exactly clique-number many colors."""
    colors = cograph_coloring_with_palette(g, g.full_mask(), list(range(1, g.n + 1)), {})
    return colors, max(colors.values(), default=0)


def cograph_coloring_with_palette(g: Graph, mask: int, palette: list[int],
                                  fixed: dict[int, int]) -> dict[int, int]:
    """Color the cograph ``g`` induces on ``mask`` from an explicit palette,
    honoring fixed vertex colors.

    Requires len(palette) >= clique number of the part, the fixed colors to
    be drawn from the palette, and fixed vertices in distinct join branches
    to carry distinct colors (always true when the fixed set is a clique
    colored injectively).  Used to lift a reduced-bag coloring back onto the
    whole bag without recoloring the retained clique.  Clique numbers are
    summed up the one split (leaf 1, union max, join sum), palettes handed down.
    """
    parts = list(cograph_split(g, mask))
    for part, kind, _ in parts:
        if kind is None:
            raise PreconditionError(f"vertices {tuple(bits(part))} hold an induced P4")
    omega = {}
    for part, kind, kids in reversed(parts):
        omega[part] = (1 if kind == "leaf" else max(omega[kid] for kid in kids)
                       if kind == "union" else sum(omega[kid] for kid in kids))
    if omega.get(mask, 0) > len(palette):
        raise PreconditionError("palette smaller than the clique number")
    out: dict[int, int] = {}
    pals = {mask: tuple(palette)}
    for part, kind, kids in parts:
        pal = pals.pop(part)
        if kind == "leaf":
            v = part.bit_length() - 1
            c = fixed.get(v, pal[0])
            if c not in pal:
                raise PreconditionError(f"fixed color {c} outside palette for vertex {v}")
            out[v] = c
        elif kind == "union":
            pals.update(dict.fromkeys(kids, pal))
        else:  # a join's children need disjoint palettes sized to their cliques
            fixed_per = [{fixed[v] for v in bits(kid) if v in fixed} for kid in kids]
            taken = set().union(*fixed_per)
            spare = iter([c for c in pal if c not in taken])
            for kid, fc in zip(kids, fixed_per):
                sub = sorted(fc)
                for _ in range(omega[kid] - len(sub)):
                    if (c := next(spare, None)) is None:
                        raise PreconditionError(
                            f"join part {tuple(bits(part))} runs out of spare colors")
                    sub.append(c)
                pals[kid] = tuple(sorted(sub))
    return out
