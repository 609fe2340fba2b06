"""The coloring engine and its replayable trace.

``solve`` colors any (P5, gem)-free graph with maximum degree at least 9 and
clique number below the maximum degree using one color less than the degree,
the constructive form of the theorem the package mechanizes.  Degrees above
9 are peeled down by hitting independent sets, in one loop on the host's
vertex masks, and a component larger than the Bacsó-Tuza bound on a
P5-free graph of its degree is reported by its P5; the base case runs one
work-list of reductions (low degree, copycat, removable catalog subgraphs)
over the host's vertex ids and, once a component is irreducible, either
colors it exactly (perfect case) or classifies it and runs the published
per-class strategy on it as is: a reducible bag is a module, so a
non-clique one holds two false-twin cliques, a copycat pair.  With none
left every such bag is a clique, as the strategy checks.  No irreducible
core is labelled H (its degree window leaves no room for a pendant
clique), so such a label is an internal inconsistency.
"""

from __future__ import annotations

from .classify import classify
from .coloring import Coloring, verify_coloring
from .errors import (CliqueBoundError, DegreeRangeError, ForbiddenPatternError,
                     GraphFormatError, InternalInconsistencyError, PreconditionError)
from .graph import (Graph, bits, component_masks, induced_subgraph, mask_of,
                    seeded_component_masks)
from .patterns import clique_number, has_clique, is_p5_gem_free
from .reductions import check_copycat, delta_reduce, find_copycat, find_d1_catalog
from .strategies import ReducibleFound, Unreachable, apply_case_strategy
from .trace import (STEPS, ReductionTrace, TraceEvent, check_oracle_core, fingerprint,
                    run_step)

__all__ = ["color8", "solve", "replay_trace"]


def _reduction(g: Graph, ids) -> tuple[int, tuple[str, dict]] | None:
    """The copycat or catalog piece of ``g`` (vertex i is host vertex
    ``ids[i]``) as a host bitmask, with the kind and host-numbered data of
    the step that extends back; None when neither rule applies."""
    pair = find_copycat(g)
    if pair is not None:
        a, b = pair
        check_copycat(g, a, b)
        a, b = tuple(ids[u] for u in a), tuple(ids[u] for u in b)
        return mask_of(a), ("copycat", {"a": a, "b": b})
    w = find_d1_catalog(g)
    if w is not None:
        w = tuple(ids[u] for u in w)
        return mask_of(w), ("d1_extend", {"w": w, "k": 8})
    return None


def _color8(host: Graph, mask: int, events: list) -> dict[int, int]:
    """8-color the subgraph of ``host`` induced on ``mask``; the coloring and
    the events are in host vertices.

    One work-list holds component bitmasks still to color and the extension
    steps still to apply, so a removed piece is extended after everything
    colored in its place, as a recursion would do it.  Degrees within the
    current component are kept as four bit planes ``p0..p3``: bit v of
    ``pj`` is bit j of v's degree, counted in the pass that refuses a degree
    above 9 (four planes would read 16 as 0).  A removed piece lowers each
    neighbor it leaves with one four-step borrow, so the vertices of degree
    at most 7 are ``~p3`` and those of degree 9 are ``p3 & p0``, and the
    low-degree rule and the greedy and Brooks terminals are mask tests.  The
    planes are four names, not a list: a loop over a list of planes, as in
    ``delta_reduce``, gave back most of their gain over a table of degrees.
    A ``Graph`` of the component is built only for the copycat and catalog
    rules and the core.  All components share one coloring: anything
    colored before a piece is extended lies in the rest of the piece's
    component or in a component not adjacent to it, so each apply reads the
    colors it would read alone.
    """
    adj = host.adj
    p0 = p1 = p2 = p3 = 0
    for v in bits(mask):
        d = (adj[v] & mask).bit_count()
        if d > 9:
            raise DegreeRangeError("base-case engine expects maximum degree <= 9")
        if d & 1:
            p0 |= 1 << v
        if d & 2:
            p1 |= 1 << v
        if d & 4:
            p2 |= 1 << v
        if d & 8:
            p3 |= 1 << v
    full = host.full_mask()
    colors: dict[int, int] = {}
    work: list = component_masks(adj, mask)[::-1]
    while work:
        comp = work.pop()
        if not isinstance(comp, int):  # a pending (kind, data) extension
            run_step(*comp, host, colors, events)
            continue
        if not comp & p3:
            vs = tuple(bits(comp)) if comp & comp - 1 else (comp.bit_length() - 1,)
            run_step("greedy", {"vs": vs, "k": 8}, host, colors, events)
            continue
        if not comp & p3 & p0:
            run_step("brooks", {"vs": tuple(bits(comp)), "delta": 8}, host, colors, events)
            continue
        lows = comp & ~p3
        if lows:
            piece = lows & -lows
            step = ("low_degree", {"v": piece.bit_length() - 1, "k": 8})
        else:
            g, ids = ((host, range(host.n)) if comp == full
                      else induced_subgraph(host, bits(comp)))
            reduction = _reduction(g, ids)
            if reduction is None:
                colors.update(_color_core(host, g, ids, events))
                continue
            piece, step = reduction
        # remove the piece, color the rest, then extend with the step's apply
        # on the host, the same one replay runs; only the piece's neighbors
        # can start new components
        rest = comp & ~piece
        seeds = 0
        for v in bits(piece):
            borrow = adj[v] & rest  # v's neighbors left behind each lose 1
            seeds |= borrow
            p0, borrow = p0 ^ borrow, borrow & ~p0
            p1, borrow = p1 ^ borrow, borrow & ~p1
            p2, borrow = p2 ^ borrow, borrow & ~p2
            p3 ^= borrow
        work.append(step)
        work.extend(reversed(seeded_component_masks(adj, rest, seeds)))
    return colors


def _color_core(host: Graph, g: Graph, ids, events: list) -> dict[int, int]:
    """Color an irreducible connected core ``g``, whose vertex i is host
    vertex ``ids[i]``: exactly when perfect, else by its class strategy
    (never H's, which would color a nested core)."""
    label = classify(g)
    if label.kind == "Perfect":
        check_oracle_core(g.n)
        colors: dict[int, int] = {}
        run_step("oracle", {"vs": tuple(ids), "k": clique_number(g)[0]}, host, colors, events)
        return colors

    if label.kind == "H":
        raise InternalInconsistencyError(
            "an irreducible core cannot be labelled H: A1..A5 and each A7 component "
            "are cliques, and of the 21 size vectors of A1..A6 that keep their "
            "degrees in 8..9, none leaves room for an A7 clique whose degrees do too")
    steps: list[TraceEvent] = []
    try:
        outcome = apply_case_strategy(g, label.kind, label.bags, trace=steps)
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
    events.extend(TraceEvent(e.kind, STEPS[e.kind].map_ids(e.data, ids.__getitem__))
                  for e in steps)
    return {ids[u]: c for u, c in outcome.colors.items()}


def _raise_if_not_free(g: Graph) -> None:
    free, witness = is_p5_gem_free(g)
    if not free:
        raise ForbiddenPatternError(
            f"graph contains an induced {witness.pattern} "
            f"{witness.vertices}", witness)


def _structural_gate(g: Graph, degree_ok: bool, degree_msg: str, omega_bound: int) -> None:
    """Shared precondition policy.

    Freeness is the headline class requirement, so when it fails alongside a
    degree or clique-bound violation it is the error reported.  When it is
    the only failing condition the run proceeds: the engine needs the
    structure theorem only to classify an irreducible core, and classify
    re-raises the witness error at exactly that point.  (This keeps the
    second gallery family, which contains gems by construction, colorable
    end to end, as the acceptance suite requires.)  The clique bound,
    ``omega_bound``, is tested only once the degree test passes, by
    ``has_clique``; the exact clique number and its lex-least witness are
    computed only to report a violation.
    """
    if degree_ok and not has_clique(g, g.full_mask(), omega_bound + 1):
        return
    _raise_if_not_free(g)
    if not degree_ok:
        raise DegreeRangeError(degree_msg)
    omega, clique = clique_number(g)
    raise CliqueBoundError(f"clique number {omega} exceeds {omega_bound}", clique)


def color8(g: Graph) -> tuple[Coloring, ReductionTrace]:
    """8-color a (P5, gem)-free graph with maximum degree at most 9 and
    clique number at most 8; returns the coloring plus a replayable trace."""
    delta = g.max_degree()
    _structural_gate(g, delta <= 9, f"maximum degree {delta} exceeds 9", 8)
    events: list[TraceEvent] = []
    colors = _color8(g, g.full_mask(), events)
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
    _structural_gate(g, delta >= 9, f"maximum degree {delta} is below 9", delta - 1)
    events: list[TraceEvent] = []
    try:  # the base case colors a Delta = 9 graph, or the rest of the last peel
        colors = (_color8(g, g.full_mask(), events) if delta == 9 else
                  delta_reduce(g, g.full_mask(), delta, lambda rest: _color8(g, rest, events),
                               events))
    except InternalInconsistencyError:
        # the lazy gate let the input through: an inconsistency on a graph
        # outside the class (a component over its Bacsó-Tuza bound) reports its pattern
        _raise_if_not_free(g)
        raise
    coloring = Coloring(colors, delta - 1)
    if not verify_coloring(g, coloring):
        raise InternalInconsistencyError("solver produced an improper coloring")
    n, m, hist = fingerprint(g)
    return coloring, ReductionTrace(events, coloring.k, n, m, hist)


# -- replay -------------------------------------------------------------------

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
        step = STEPS.get(e.kind)
        if step is None:
            raise PreconditionError(f"unknown event kind {e.kind!r} in trace")
        try:  # a vertex outside the graph, or one read before it has a color
            step.apply(g, e.data, colors)
        except (IndexError, KeyError):
            raise GraphFormatError(f"{e.kind} {e.data} does not fit the graph of order "
                                   f"{n} and the colors placed before it") from None
        except PreconditionError as exc:  # data the step's own checks reject
            raise GraphFormatError(f"{e.kind} {e.data} is rejected: {exc}") from exc
    if colors and (min(colors) < 0 or max(colors) >= n):
        raise GraphFormatError(f"trace colors a vertex outside the graph of order {n}")
    if colors and not (1 <= min(colors.values()) and max(colors.values()) <= trace.palette):
        raise GraphFormatError(f"trace gives a color outside its palette 1..{trace.palette}")
    return Coloring(colors, trace.palette)
