"""Structure classification for connected (P5, gem)-free graphs.

A connected (P5, gem)-free graph containing an induced C5 is an expansion of
one of the eleven shipped templates; one containing no induced C5 is perfect
(no odd hole or antihole fits without creating a P5 or a gem), which the
pipeline uses purely as a license to color it exactly.  Classes may overlap;
the first match in the fixed order G1..G7, G9, G10, H is returned.  G8 is
not tried: it is G6 with Q6 and Q8 swapped, so G6 always matches first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (ForbiddenPatternError, InternalInconsistencyError,
                     PreconditionError)
from .graph import Graph, is_connected
from .patterns import find_induced, is_p5_gem_free
from .structure import CLASS_ORDER, TEMPLATES, match_expansion, maximal_modules

__all__ = ["ClassLabel", "classify"]


@dataclass(frozen=True)
class ClassLabel:
    """Classification outcome: the class kind and, for template classes,
    the matched bag partition."""

    kind: str  # a CLASS_ORDER entry (never "G8") or "Perfect"
    bags: dict[str, tuple[int, ...]] | None = None


def classify(g: Graph) -> ClassLabel:
    """Classify a connected (P5, gem)-free graph.

    Returns Perfect when no induced C5 exists, else the first matching
    template with its bag partition.  A connected C5-containing graph that
    matches nothing contradicts the structure theorem, so that outcome is
    raised as an internal inconsistency instead of being returned.

    The freeness walks and the module search each run on one vertex per
    class of true twins, and the modules are found once for all templates.
    """
    if not is_connected(g):
        raise PreconditionError("classification expects a connected graph")
    free, witness = is_p5_gem_free(g)
    if not free:
        raise ForbiddenPatternError(
            f"graph contains an induced {witness.pattern}", witness)
    if find_induced(g, "C5") is None:
        return ClassLabel("Perfect")
    modules = maximal_modules(g)
    for cid in CLASS_ORDER:
        bags = match_expansion(g, TEMPLATES[cid], modules)
        if bags is not None:
            return ClassLabel(cid, bags)
    raise InternalInconsistencyError(
        "connected C5-containing (P5, gem)-free graph matched no template")
