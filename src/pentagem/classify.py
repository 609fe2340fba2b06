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
from .graph import Graph, is_connected, true_twin_classes
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

    The freeness walks run on one vertex per class of true twins.  The
    templates without spare nodes are first tried on the twin classes
    themselves, in the order ``maximal_modules`` lists modules; only when
    none of them matches are the modules found and every template tried
    on them.  The label is the one the full search returns:

    - A match to a spare-free template T makes each bag exactly one twin
      class, and ``check_bag_partition`` has verified that every pair of
      bags is complete or anticomplete as T requires.  So the twin
      quotient is T's graph, which is prime (asserted at import in
      ``structure``).
    - When the twin quotient is prime, a proper module that meets two
      classes would meet all of them, and a vertex outside it would be
      universal in the quotient, which a prime graph cannot have.  So the
      twin classes are the maximal proper modules, and ``maximal_modules``
      would list these same sets in this same order.
    - The earlier templates were tried on that same list, so the label
      and bags are the ones the full search returns.
    - A C5-containing graph that passes the freeness walk has no
      universal vertex, which ``maximal_modules`` treats specially.
      Anything not certified this way falls back to the module search.
    """
    if not is_connected(g):
        raise PreconditionError("classification expects a connected graph")
    free, witness = is_p5_gem_free(g)
    if not free:
        raise ForbiddenPatternError(
            f"graph contains an induced {witness.pattern}", witness)
    if find_induced(g, "C5") is None:
        return ClassLabel("Perfect")
    twins = [tuple(c) for c in sorted(true_twin_classes(g.adj, range(g.n)),
                                      key=lambda c: (-len(c), c[0]))]
    for cid in CLASS_ORDER:
        if TEMPLATES[cid].spare:
            break
        if (bags := match_expansion(g, TEMPLATES[cid], twins)) is not None:
            return ClassLabel(cid, bags)
    modules = maximal_modules(g)
    for cid in CLASS_ORDER:
        bags = match_expansion(g, TEMPLATES[cid], modules)
        if bags is not None:
            return ClassLabel(cid, bags)
    raise InternalInconsistencyError(
        "connected C5-containing (P5, gem)-free graph matched no template")
