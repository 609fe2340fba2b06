"""The recursive coloring engine and its replayable trace.

``solve`` colors any (P5, gem)-free graph with maximum degree at least 9 and
clique number below the maximum degree using one color less than the degree,
the constructive form of the theorem the package mechanizes.  Degrees above
9 are peeled down by hitting independent sets; the base case runs a loop of
reductions (low degree, copycat, removable catalog subgraphs) and, once the
graph is irreducible, either colors it exactly (perfect case) or classifies
it and runs the published per-class strategy on it as is: a reducible bag
is a module, so a non-clique one holds two false-twin cliques, a copycat
pair.  With none left every such bag is a clique, as the strategy checks.
"""

from __future__ import annotations

from .classify import classify
from .coloring import Coloring, color_with_independent_sets, greedy_color, verify_coloring
from .errors import (CliqueBoundError, DegreeRangeError, ForbiddenPatternError,
                     InternalInconsistencyError, PreconditionError)
from .graph import Graph, bits, connected_components, induced_subgraph
from .oracle import colorable_with
from .patterns import clique_number, is_p5_gem_free
from .reductions import (_delta_reduce, brooks_color, copycat_extend,
                         extend_list_coloring, find_copycat, find_d1_catalog,
                         find_low_degree)
from .strategies import ReducibleFound, Unreachable, apply_case_strategy
from .structure import CliqueReduction, lift_coloring
from .trace import ReductionTrace, TraceEvent, fingerprint

__all__ = ["color8", "solve", "replay_trace"]

# vertex fields of apply_case_strategy's lemma1, oracle, clique_copy, a7_peel
_VERTEX_FIELDS = ("vs", "order", "removed", "donor")


def _remap_event(e: TraceEvent, ids: tuple[int, ...]) -> TraceEvent:
    data = dict(e.data)
    for f in _VERTEX_FIELDS:
        if f in data:
            data[f] = tuple(ids[x] for x in data[f])
    if "sets" in data:
        data["sets"] = tuple(tuple(ids[x] for x in s) for s in data["sets"])
    return TraceEvent(e.kind, data)


class _RemappedEvents(list):
    """List facade translating sub-problem vertex ids on append."""

    def __init__(self, target: list, ids: tuple[int, ...]):
        super().__init__()
        self._target = target
        self._ids = ids

    def append(self, event: TraceEvent) -> None:
        self._target.append(_remap_event(event, self._ids))


def _brooks_into(g: Graph, ids: tuple[int, ...], events: list) -> dict[int, int]:
    local = brooks_color(g).colors
    events.append(TraceEvent("brooks", {"vs": ids, "delta": g.max_degree()}))
    return {ids[v]: c for v, c in local.items()}


def _color8(g: Graph, ids: tuple[int, ...], events: list) -> dict[int, int]:
    if g.n == 0:
        return {}
    comps = connected_components(g)
    if len(comps) > 1:
        colors: dict[int, int] = {}
        for comp in comps:
            sub, local = induced_subgraph(g, comp)
            colors.update(_color8(sub, tuple(ids[i] for i in local), events))
        return colors
    delta = g.max_degree()
    if delta <= 7:
        local = greedy_color(g, list(range(g.n)), 8)
        events.append(TraceEvent("greedy", {"vs": ids, "k": 8}))
        return {ids[v]: c for v, c in local.items()}
    if delta == 8:
        return _brooks_into(g, ids, events)
    if delta > 9:
        raise DegreeRangeError("base-case engine expects maximum degree <= 9")

    v = find_low_degree(g, 8)
    if v is not None:
        rest = [u for u in range(g.n) if u != v]
        sub, local = induced_subgraph(g, rest)
        colors = _color8(sub, tuple(ids[i] for i in local), events)
        used = {colors[ids[u]] for u in bits(g.adj[v])}
        c = 1
        while c in used:
            c += 1
        if c > 8:
            raise InternalInconsistencyError("low-degree extension ran out of colors")
        colors[ids[v]] = c
        events.append(TraceEvent("low_degree", {"v": ids[v], "k": 8}))
        return colors

    pair = find_copycat(g)
    if pair is not None:
        a, b = pair
        rest = [u for u in range(g.n) if u not in set(a)]
        sub, local = induced_subgraph(g, rest)
        colors = _color8(sub, tuple(ids[i] for i in local), events)
        partial = {u: colors[ids[u]] for u in rest}
        full = copycat_extend(g, a, b, partial)
        for u in a:
            colors[ids[u]] = full[u]
        events.append(TraceEvent("copycat", {"a": tuple(ids[u] for u in a),
                                             "b": tuple(ids[u] for u in b)}))
        return colors

    w = find_d1_catalog(g)
    if w is not None:
        rest = [u for u in range(g.n) if u not in set(w)]
        sub, local = induced_subgraph(g, rest)
        colors = _color8(sub, tuple(ids[i] for i in local), events)
        wset = set(w)
        h_sub, h_ids = induced_subgraph(g, w)
        lists = {}
        for i, u in enumerate(h_ids):
            seen = {colors[ids[x]] for x in bits(g.adj[u]) if x not in wset}
            lists[i] = frozenset(range(1, 9)) - seen
        assign = extend_list_coloring(h_sub, lists)
        for i, c in assign.items():
            colors[ids[h_ids[i]]] = c
        events.append(TraceEvent("d1_extend", {"w": tuple(ids[u] for u in w), "k": 8}))
        return colors

    # irreducible: classify and run the structure pipeline
    label = classify(g)
    if label.kind == "Perfect":
        omega, witness_clique = clique_number(g)
        assign = colorable_with(g, omega, seed_clique=witness_clique)
        if assign is None:
            raise InternalInconsistencyError(
                "C5-free irreducible graph refused a clique-number coloring")
        events.append(TraceEvent("oracle", {"vs": ids, "k": omega}))
        return {ids[u]: c for u, c in assign.items()}

    def recurse(sub: Graph, sub_local_ids: tuple[int, ...]) -> dict[int, int]:
        abs_ids = tuple(ids[i] for i in sub_local_ids)
        child = _color8(sub, abs_ids, events)
        return {sub_local_ids[i]: child[abs_ids[i]] for i in range(len(abs_ids))}

    try:
        outcome = apply_case_strategy(g, label.kind, label.bags, k=8, recurse=recurse,
                                      trace=_RemappedEvents(events, ids))
    except ForbiddenPatternError:
        raise  # from a nested classify inside H's recursion
    except PreconditionError as exc:  # the starred check: a bag not in clique form
        raise InternalInconsistencyError(
            f"strategy for {label.kind} rejected the classified core ({exc}); with "
            "no copycat pair left, every reducible bag must be a clique") from exc
    if isinstance(outcome, ReducibleFound):
        raise InternalInconsistencyError(
            f"strategy for {label.kind} saw a reducible configuration after the "
            f"reduction loop: {outcome.reason}")
    if isinstance(outcome, Unreachable):
        raise InternalInconsistencyError(
            f"contradiction branch reached in {label.kind}: {outcome.reason}")
    return {ids[u]: c for u, c in outcome.colors.items()}


def _raise_if_not_free(g: Graph) -> None:
    free, witness = is_p5_gem_free(g)
    if not free:
        raise ForbiddenPatternError(
            f"graph contains an induced {witness.pattern} "
            f"{witness.vertices}", witness)


def _structural_gate(g: Graph, degree_ok: bool, degree_msg: str,
                     omega: int, omega_bound: int, clique: tuple[int, ...]) -> None:
    """Shared precondition policy.

    Freeness is the headline class requirement, so when it fails alongside a
    degree or clique-bound violation it is the error reported.  When it is
    the only failing condition the run proceeds: the engine needs the
    structure theorem only to classify an irreducible core, and classify
    re-raises the witness error at exactly that point.  (This keeps the
    second gallery family, which contains gems by construction, colorable
    end to end, as the acceptance suite requires.)
    """
    if degree_ok and omega <= omega_bound:
        return
    _raise_if_not_free(g)
    if not degree_ok:
        raise DegreeRangeError(degree_msg)
    raise CliqueBoundError(
        f"clique number {omega} exceeds {omega_bound}", clique)


def color8(g: Graph) -> tuple[Coloring, ReductionTrace]:
    """8-color a (P5, gem)-free graph with maximum degree at most 9 and
    clique number at most 8; returns the coloring plus a replayable trace."""
    delta = g.max_degree()
    omega, clique = clique_number(g)
    _structural_gate(g, delta <= 9, f"maximum degree {delta} exceeds 9",
                     omega, 8, clique)
    events: list[TraceEvent] = []
    colors = _color8(g, tuple(range(g.n)), events)
    coloring = Coloring(colors, 8)
    if not verify_coloring(g, coloring):
        raise InternalInconsistencyError("engine produced an improper coloring")
    n, m, hist = fingerprint(g)
    return coloring, ReductionTrace(events, 8, n, m, hist)


def solve(g: Graph) -> tuple[Coloring, ReductionTrace]:
    """Color with one less color than the maximum degree.

    Preconditions (checked, with witnesses): (P5, gem)-free, maximum degree
    at least 9, clique number at most the maximum degree minus one.  The
    freeness requirement is enforced lazily (see ``_structural_gate``).
    """
    delta = g.max_degree()
    omega, clique = clique_number(g)
    _structural_gate(g, delta >= 9, f"maximum degree {delta} is below 9",
                     omega, delta - 1, clique)
    events: list[TraceEvent] = []
    if delta == 9:
        colors = _color8(g, tuple(range(g.n)), events)
        coloring = Coloring(colors, 8)
    else:
        def base(sub: Graph, sub_ids: tuple[int, ...]) -> dict[int, int]:
            return _color8(sub, sub_ids, events)

        try:
            colors = _delta_reduce(g, tuple(range(g.n)), omega, base, events)
        except InternalInconsistencyError:
            # the lazy gate let the input through: a fruitless search on a
            # graph outside the class reports the forbidden pattern
            _raise_if_not_free(g)
            raise
        coloring = Coloring(colors, delta - 1)
    if not verify_coloring(g, coloring):
        raise InternalInconsistencyError("solver produced an improper coloring")
    n, m, hist = fingerprint(g)
    return coloring, ReductionTrace(events, coloring.k, n, m, hist)


# -- replay -------------------------------------------------------------------

def _replay_copy(removed: tuple[int, ...], donor: tuple[int, ...],
                 colors: dict[int, int]) -> None:
    pool = sorted(colors[v] for v in donor)
    for v, c in zip(sorted(removed), pool):
        colors[v] = c


def replay_trace(g: Graph, trace: ReductionTrace) -> Coloring:
    """Re-execute a trace in commit order; returns the rebuilt coloring.

    Terminal events color whole subproblems, extension events recolor the
    pieces that were removed around them; every step is deterministic given
    the colors already on the board, so the result must match the solver's
    output exactly.  Callers compare.
    """
    n, m, hist = fingerprint(g)
    if (n, m, hist) != (trace.n, trace.m, trace.degree_histogram):
        raise PreconditionError("trace fingerprint does not match the graph")
    colors: dict[int, int] = {}
    for e in trace.events:
        d = e.data
        if e.kind == "greedy":
            sub, ids = induced_subgraph(g, d["vs"])
            local = greedy_color(sub, list(range(sub.n)), d["k"])
            for i, c in local.items():
                colors[ids[i]] = c
        elif e.kind == "brooks":
            sub, ids = induced_subgraph(g, d["vs"])
            for i, c in brooks_color(sub).colors.items():
                colors[ids[i]] = c
        elif e.kind == "oracle":
            sub, ids = induced_subgraph(g, d["vs"])
            assign = colorable_with(sub, d["k"])
            if assign is None:
                raise InternalInconsistencyError("oracle replay failed to color")
            for i, c in assign.items():
                colors[ids[i]] = c
        elif e.kind == "lemma1":
            sub, ids = induced_subgraph(g, d["vs"])
            pos = {v: i for i, v in enumerate(ids)}
            sets = [tuple(pos[v] for v in s) for s in d["sets"]]
            order = [pos[v] for v in d["order"]]
            local = color_with_independent_sets(sub, sets, d["k"], order=order)
            for i, c in local.colors.items():
                colors[ids[i]] = c
        elif e.kind == "low_degree":
            v = d["v"]
            used = {colors[u] for u in bits(g.adj[v]) if u in colors}
            c = 1
            while c in used:
                c += 1
            if c > d["k"]:
                raise InternalInconsistencyError("low-degree replay overflowed")
            colors[v] = c
        elif e.kind in ("copycat", "clique_copy"):
            removed = d["a"] if e.kind == "copycat" else d["removed"]
            donor = d["b"] if e.kind == "copycat" else d["donor"]
            _replay_copy(removed, donor, colors)
        elif e.kind == "d1_extend":
            wset = set(d["w"])
            sub, ids = induced_subgraph(g, d["w"])
            lists = {}
            for i, u in enumerate(ids):
                seen = {colors[x] for x in bits(g.adj[u])
                        if x not in wset and x in colors}
                lists[i] = frozenset(range(1, d["k"] + 1)) - seen
            for i, c in extend_list_coloring(sub, lists).items():
                colors[ids[i]] = c
        elif e.kind == "a7_peel":
            for v in sorted(d["removed"]):
                used = {colors[u] for u in bits(g.adj[v]) if u in colors}
                c = 1
                while c in used:
                    c += 1
                if c > d["k"]:
                    raise InternalInconsistencyError("pendant replay overflowed")
                colors[v] = c
        elif e.kind == "delta_set":
            for v in d["i_set"]:
                colors[v] = d["color"]
        elif e.kind == "lift":
            reduction = CliqueReduction((), {}, d["units"])
            colors.update(lift_coloring(g, reduction, dict(colors)))
        else:
            raise PreconditionError(f"unknown event kind {e.kind!r} in trace")
    return Coloring(colors, trace.palette)
