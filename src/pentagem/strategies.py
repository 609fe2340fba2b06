"""Per-class coloring strategies for irreducible clique expansions.

Each matched class carries hard-coded strategy data: which bag-size branch
applies, which independent sets to reserve (one or two designated vertices
per listed bag), and an elimination sequence of bags.  Two classes (the
plain C5 expansion and the fifth class) have no coloring branch at all: on
an irreducible host every branch ends in a configuration some reduction
rule must have consumed, so hitting them is reported, never colored around
silently.

The table holds each sequence as published: a bag earlier in it is
eliminated earlier, so it is colored later.  ``published_plan`` returns the
reverse of the elimination order as the coloring order, and back-degree
counts each vertex's neighbors earlier in that coloring order.

The degeneracy bound is always checked, never trusted: when a published
order misses the bound the strategy falls back to a computed smallest-last
order, and failing that to the exact oracle, recording the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import Coloring, back_degree_profile, degeneracy_order
from .errors import PreconditionError
from .graph import Graph, induced_subgraph, mask_of
from .patterns import clique_number
from .reductions import check_copycat
from .structure import TEMPLATES, check_bag_partition
from .trace import check_oracle_core, run_step

__all__ = [
    "ReducibleFound",
    "Unreachable",
    "CaseStrategy",
    "CASE_STRATEGIES",
    "published_plan",
    "apply_case_strategy",
]


@dataclass(frozen=True)
class ReducibleFound:
    """A branch condition exposed a configuration a reduction rule owns."""

    reason: str


@dataclass(frozen=True)
class Unreachable:
    """Only contradiction branches applied; names the violated inequality."""

    reason: str


@dataclass(frozen=True)
class CaseBranch:
    name: str
    sets: tuple[tuple[tuple[str, int], ...], ...]  # ((bag, rep_index), ...) per set
    order: tuple[str, ...]  # elimination sequence of bags; colored in reverse
    when: tuple[str, int] | None = None  # (bag, least size) the branch needs


@dataclass(frozen=True)
class CaseStrategy:
    """Strategy data for one class: copycat conclusions, then the first branch
    whose size condition holds, or else ReducibleFound(``fallthrough``)."""

    case_id: str
    copycat: tuple[tuple[str, str], ...]  # (larger, smaller): |larger| > |smaller|
    branches: tuple[CaseBranch, ...]
    fallthrough: str | None = None

    def branch_for(self, sizes: dict[str, int]) -> CaseBranch | None:
        """The first branch whose size condition ``sizes`` meets, or None."""
        return next((b for b in self.branches
                     if b.when is None or sizes[b.when[0]] >= b.when[1]), None)


CASE_STRATEGIES: dict[str, CaseStrategy] = {
    "G2": CaseStrategy("G2", (("Q2", "Q6"), ("Q5", "Q6")), (
        CaseBranch("two_sets",
                   ((("Q2", 0), ("Q5", 0), ("Q6", 0)),
                    (("Q2", 1), ("Q5", 1), ("Q6", 1))),
                   ("Q1", "Q4", "Q3", "Q5", "Q2", "Q6"), ("Q6", 2)),
        CaseBranch("one_set",
                   ((("Q2", 0), ("Q5", 0), ("Q6", 0)),),
                   ("Q1", "Q5", "Q2", "Q4", "Q3", "Q6"), ("Q1", 2)),
    ), "Q1 and Q6 both singletons force a low-degree vertex"),
    "G3": CaseStrategy("G3", (("Q5", "Q6"), ("Q3", "Q7")), (
        CaseBranch("main",
                   ((("Q2", 0), ("Q5", 0), ("Q6", 0)),
                    (("Q1", 0), ("Q3", 0), ("Q7", 0))),
                   ("Q4", "Q3", "Q5", "Q2", "Q1", "Q6", "Q7"), ("Q4", 2)),
    ), "singleton Q4 forces a low-degree vertex"),
    "G4": CaseStrategy("G4", (("Q1", "Q5"),), (
        CaseBranch("main",
                   ((("Q1", 0), ("Q5", 0), ("Q7", 0)),
                    (("Q1", 1), ("Q3", 0), ("Q6", 0))),
                   ("Q4", "Q2", "Q1", "Q5", "Q3", "Q7", "Q6")),
    )),
    "G6": CaseStrategy("G6", (), (
        CaseBranch("main",
                   ((("Q3", 0), ("Q5", 0), ("Q7", 0)),
                    (("Q2", 0), ("Q6", 0), ("Q8", 0))),
                   ("Q4", "Q1", "Q8", "Q5", "Q7", "Q6", "Q3", "Q2")),
    )),
    "G7": CaseStrategy("G7", (("Q4", "Q7"),), (
        CaseBranch("main",
                   ((("Q4", 0), ("Q6", 0), ("Q7", 0)),
                    (("Q2", 0), ("Q4", 1), ("Q8", 0))),
                   ("Q5", "Q3", "Q4", "Q7", "Q2", "Q8", "Q6", "Q1")),
    )),
    "G8": CaseStrategy("G8", (), (
        CaseBranch("main",
                   ((("Q3", 0), ("Q5", 0), ("Q7", 0)),
                    (("Q2", 0), ("Q6", 0), ("Q8", 0))),
                   ("Q4", "Q1", "Q3", "Q2", "Q7", "Q8", "Q6", "Q5")),
    )),
    "G9": CaseStrategy("G9", (("Q9", "Q5"),), (
        CaseBranch("main",
                   ((("Q3", 0), ("Q5", 0), ("Q7", 0), ("Q9", 0)),
                    (("Q2", 0), ("Q6", 0), ("Q8", 0), ("Q9", 1))),
                   ("Q4", "Q1", "Q3", "Q2", "Q7", "Q8", "Q9", "Q6", "Q5")),
    )),
    "G10": CaseStrategy("G10", (), (
        CaseBranch("main",
                   ((("Q3", 0), ("Q5", 0), ("Q7", 0)),
                    (("Q2", 0), ("Q6", 0), ("Q8", 0))),
                   ("Q9", "Q4", "Q1", "Q3", "Q2", "Q7", "Q8", "Q6", "Q5")),
    )),
    "H": CaseStrategy("H", (), (
        CaseBranch("anchor_two",
                   ((("A2", 0), ("A5", 0), ("A6", 0)),
                    (("A2", 1), ("A5", 1), ("A6", 1))),
                   ("A1", "A5", "A2", "A4", "A3", "A6", "A7"), ("A6", 2)),
    )),
}


def published_plan(case_id: str, branch: str,
                   bags: dict[str, tuple[int, ...]]
                   ) -> tuple[list[tuple[int, ...]], list[int]]:
    """Materialize a branch's independent sets and coloring order for ``bags``.

    Designated vertices x_i, x_i', ... are the lowest-indexed members of the
    bag.  The elimination order lists each bag's remaining vertices
    ascending, bag blocks in the published sequence; the returned coloring
    order is its reverse, so a vertex's back-degree counts its neighbors
    eliminated after it.
    """
    strat = CASE_STRATEGIES[case_id]
    br = next(b for b in strat.branches if b.name == branch)
    sets = [tuple(sorted(bags[name])[idx] for name, idx in s) for s in br.sets]
    removed = set().union(*map(set, sets)) if sets else set()
    elimination = [v for name in br.order for v in sorted(bags[name]) if v not in removed]
    return sets, elimination[::-1]


def _sizes(bags: dict[str, tuple[int, ...]]) -> dict[str, int]:
    return {name: len(vs) for name, vs in bags.items()}


def _lemma1(g: Graph, case_id: str, branch: str, bags: dict[str, tuple[int, ...]],
            trace: list | None) -> Coloring:
    """Reserve the branch's sets, then color through the ``lemma1`` step, or
    the ``oracle`` step when no checked order meets the bound."""
    sets, order = published_plan(case_id, branch, bags)
    bound = 8 - len(sets) - 1
    rest = g.full_mask() & ~mask_of(v for s in sets for v in s)
    data = {"vs": tuple(range(g.n)), "k": 8, "case": case_id, "branch": branch}
    colors: dict[int, int] = {}
    if fallback := back_degree_profile(g, order, rest) > bound:
        order = degeneracy_order(g, rest)
        if back_degree_profile(g, order, rest) > bound:
            check_oracle_core(g.n)
            run_step("oracle", data, g, colors, trace)
            return Coloring(colors, 8)
    data.update(sets=tuple(sets), order=tuple(order), fallback=fallback)
    run_step("lemma1", data, g, colors, trace)
    return Coloring(colors, 8)


def _color_without(g: Graph, piece: tuple[int, ...], recurse) -> dict[int, int]:
    sub, ids = induced_subgraph(g, sorted(set(range(g.n)) - set(piece)))
    return recurse(sub, tuple(ids))


def _strategy_h(g: Graph, bags: dict[str, tuple[int, ...]], recurse, trace: list | None):
    """The pendant-class strategy: copy rules, anchor branch, or pendant peel."""
    omega6, donor = clique_number(g, mask_of(bags["A6"]))
    for side in ("A5", "A2"):
        if len(bags[side]) <= omega6:
            removed = tuple(bags[side])
            check_copycat(g, removed, donor)
            colors = _color_without(g, removed, recurse)
            run_step("clique_copy", {"removed": removed, "donor": donor}, g, colors, trace)
            return Coloring(colors, 8)
    if branch := CASE_STRATEGIES["H"].branch_for(_sizes(bags)):
        return _lemma1(g, "H", branch.name, bags, trace)
    # pendant peel: color the rest, then fill each pendant clique greedily
    a7 = tuple(bags["A7"])
    colors = _color_without(g, a7, recurse)
    run_step("a7_peel", {"removed": a7, "k": 8}, g, colors, trace)
    return Coloring(colors, 8)


def apply_case_strategy(gstar: Graph, case_id: str, bags: dict[str, tuple[int, ...]], *,
                        recurse=None, trace: list | None = None):
    """8-color an irreducible starred class member with the published strategy.

    Returns a Coloring, or ReducibleFound when a branch condition exposes a
    configuration the reduction loop owns, or Unreachable when only
    contradiction branches apply (impossible for genuinely irreducible
    inputs; surfaced so the caller can fail loudly).

    ``recurse`` colors a subgraph (graph, ids) -> {id: color} and is needed
    only for the pendant class H.  The solver never passes it: no
    irreducible core is labelled H, so only a direct caller reaches H.
    """
    template = TEMPLATES[case_id]
    problems = check_bag_partition(gstar, template, bags, starred=True)
    if problems:
        raise PreconditionError("bags inconsistent with graph: " + "; ".join(problems))
    if gstar.max_degree() != 9:
        raise PreconditionError("case strategies apply at maximum degree 9 exactly")
    sizes = _sizes(bags)

    if case_id == "G1":
        big = next((q for q in ("Q1", "Q2", "Q3", "Q4", "Q5") if sizes[q] >= 4), None)
        if big is None:
            return Unreachable("all bags of size <= 3 force Delta <= 8, not 9")
        ring = ("Q1", "Q2", "Q3", "Q4", "Q5")
        i = ring.index(big)
        prev, nxt = ring[i - 1], ring[(i + 1) % 5]
        if sizes[prev] >= 2 and sizes[nxt] >= 2:
            return ReducibleFound(
                f"{big} with both neighbors >= 2 carries a K4-join catalog subgraph")
        return Unreachable(
            "singleton neighbor next to a size->=4 bag forces a degree >= 10 vertex")

    if case_id == "G5":
        for big, small in (("Q5", "Q6"), ("Q2", "Q7")):
            if sizes[big] <= sizes[small]:
                return ReducibleFound(f"copycat pair ({big}, {small}) is reducible")
        if sizes["Q1"] >= 3:
            return ReducibleFound("Q1 of size >= 3 carries K3 v 3K2")
        for q in ("Q3", "Q4"):
            if sizes[q] >= 4:
                return ReducibleFound(f"{q} of size >= 4 carries a K4-join catalog subgraph")
        return Unreachable("d(x1) >= 10 contradicts Delta = 9")

    strat = CASE_STRATEGIES[case_id]
    for big, small in strat.copycat:
        if sizes[big] <= sizes[small]:
            return ReducibleFound(f"copycat pair ({big}, {small}) is reducible")

    if case_id == "H":
        if recurse is None:
            raise PreconditionError("the H strategy needs a recursion callback")
        return _strategy_h(gstar, bags, recurse, trace)

    if (branch := strat.branch_for(sizes)) is None:
        return ReducibleFound(strat.fallthrough)
    return _lemma1(gstar, case_id, branch.name, bags, trace)
