"""Reduction traces: an ordered, replayable log of how a coloring was built.

Events are recorded in the order the solver commits colors, so a forward
pass over the document recolors the graph deterministically: terminal events
color a whole subproblem, extension events color removed pieces from data
already on the board.  The text format is line-based, versioned, and
round-trips losslessly.

``STEPS`` defines each event kind once: the verb that starts its line, its
fields with their text codecs (which also say which fields hold vertex
ids), and the ``apply`` that colors from the board.  Dumping, parsing,
remapping and replay read that table, and the solver records each
extension and then calls the same ``apply`` that replay calls.

Every ``apply`` colors the graph it is handed inside the bitmask of the
vertices its fields name, as a copy of that subgraph would be colored, and
builds no copy: a ``brooks`` line's ``delta`` must be the subgraph's
maximum degree, and an ``oracle`` line over more than ``ORACLE_CAP``
vertices is rejected before any search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .coloring import color_with_independent_sets, first_fit, greedy_color
from .errors import GraphFormatError, InternalInconsistencyError
from .graph import Graph, bits, mask_of
from .graphio import ascii_digits
from .oracle import colorable_with
from .reductions import (_brooks_by_degree, _delta_and_low, bacso_tuza_bound, copy_colors,
                         extend_list_coloring)

__all__ = ["TraceEvent", "ReductionTrace", "STEPS", "ORACLE_CAP", "check_oracle_core",
           "fingerprint", "run_step", "dumps_trace", "loads_trace"]

SCHEMA_VERSION = 1
_HEAD = f"pentagem-trace {SCHEMA_VERSION}"  # a trace's first line, exactly


class TraceEvent(NamedTuple):
    """One line of a trace: its kind and its fields.  Immutable, and a
    ``(kind, data)`` tuple, so it unpacks as one and compares equal to one."""

    kind: str
    data: dict


@dataclass
class ReductionTrace:
    events: list[TraceEvent] = field(default_factory=list)
    palette: int = 0
    n: int = 0
    m: int = 0
    degree_histogram: tuple[tuple[int, int], ...] = ()


def fingerprint(g: Graph) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    hist: dict[int, int] = {}
    for a in g.adj:
        d = a.bit_count()
        hist[d] = hist.get(d, 0) + 1
    # m is half the degree sum, read off the same histogram
    return g.n, sum(d * c for d, c in hist.items()) // 2, tuple(sorted(hist.items()))


# -- field codecs ---------------------------------------------------------------

def _fmt_vs(vs) -> str:
    return ",".join(map(str, vs)) if vs else "-"


def _parse_vs(tok: str) -> tuple[int, ...]:
    return () if tok == "-" else tuple(map(int, ascii_digits(tok, "-0123456789,").split(",")))


def _int(tok: str) -> int:
    return int(ascii_digits(tok))


def _count(tok: str) -> int:
    return int(ascii_digits(tok, "0123456789"))


def _parse_hist(tok: str) -> tuple[tuple[int, int], ...]:
    hist = () if tok == "-" else tuple(tuple(map(int, p.split(":")))
                                       for p in ascii_digits(tok, "0123456789,:").split(","))
    if len(dict(hist)) < len(hist):  # dict() also refuses anything but a pair
        raise ValueError(f"a degree repeats in {tok}")
    return hist


class Codec(NamedTuple):
    """How a field is written and read.  ``remap(value, f)`` rebuilds the
    value with ``f`` applied to each vertex id; None for fields without."""

    dump: Callable[[object], str]
    load: Callable[[str], object]
    remap: Callable | None = None


VERTEX = Codec(str, _int, lambda v, f: f(v))
VERTICES = Codec(_fmt_vs, _parse_vs, lambda vs, f: tuple(map(f, vs)))
SETS = Codec(lambda ss: ";".join(map(_fmt_vs, ss)) if ss else "-",
             lambda tok: () if tok == "-" else tuple(map(_parse_vs, tok.split(";"))),
             lambda ss, f: tuple(tuple(map(f, s)) for s in ss))
INT = Codec(str, _int)
BOOL = Codec(lambda b: str(int(b)), lambda tok: bool(("0", "1").index(tok)))
STR = Codec(str, str)
COUNT = Codec(str, _count)
HIST = Codec(lambda h: ",".join(f"{d}:{c}" for d, c in h) or "-", _parse_hist)

_REQUIRED = object()


class Field(NamedTuple):
    """One ``name=value`` token.  A field with no default must be present; one
    absent from the data or the line takes ``default``, and a None default
    leaves it out on both sides."""

    key: str
    codec: Codec
    default: object = _REQUIRED
    tag: str = ""  # the name on the line, when it is not ``key``


def _malformed(line: str) -> GraphFormatError:
    return GraphFormatError(f"malformed trace line: {line!r}")


class Step:
    """One kind of line: its verb, its fields in order and, for an event,
    ``apply(g, data, colors)``, which colors the event's vertices in place
    from the colors already in ``colors``; all three share one numbering."""

    def __init__(self, verb: str, fields: tuple[Field, ...], apply=None):
        self.verb, self.fields, self.apply = verb, fields, apply
        self._write = [(f"{f.tag or f.key}=", f.key, f.codec.dump, f.default)
                       for f in fields]
        self._read = {f.tag or f.key: (f.key, f.codec.load) for f in fields}
        self._vertex = [(f.key, f.codec.remap) for f in fields if f.codec.remap]

    def dump(self, head: str, data: dict) -> str:
        parts = [head]
        for name, key, dump, default in self._write:
            value = data[key] if default is _REQUIRED else data.get(key, default)
            if value is not None:
                parts.append(name + dump(value))
        return " ".join(parts)

    def load(self, line: str, toks: list[str]) -> dict:
        data = {}
        try:
            for tok in toks:
                name, _, text = tok.partition("=")
                if name not in self._read:
                    raise ValueError(f"unknown field {name}=")
                key, load = self._read[name]
                if key in data:
                    raise ValueError(f"repeated field {name}=")
                data[key] = load(text)
            for f in self.fields:
                if f.key not in data:
                    if f.default is _REQUIRED:
                        raise ValueError(f"no {f.tag or f.key}=")
                    if f.default is not None:
                        data[f.key] = f.default
        except ValueError as exc:
            raise _malformed(line) from exc
        return data

    def map_ids(self, data: dict, f) -> dict:
        """``data`` with ``f`` applied to every vertex id."""
        out = dict(data)
        for key, remap in self._vertex:
            if key in out:
                out[key] = remap(out[key], f)
        return out


def _vertices(g: Graph, vs):
    """``vs``, each of which must be a vertex of ``g``."""
    if vs and not (0 <= min(vs) and max(vs) < g.n):
        raise GraphFormatError(f"vertices {_fmt_vs(vs)} are not all in the graph "
                               f"of order {g.n}")
    return vs


def _mask(g: Graph, vs) -> int:
    """The bitmask of ``vs``, each of which must be a vertex of ``g``."""
    return mask_of(_vertices(g, vs))


def _greedy(g: Graph, d: dict, colors: dict[int, int]) -> None:
    """First-fit over ``vs`` in increasing order, seeing only ``vs``: one
    vertex sees only itself, so with a k of 1 or more it takes color 1."""
    vs = _vertices(g, d["vs"])
    if len(vs) == 1 and d["k"] >= 1:
        colors[vs[0]] = 1
    else:
        colors.update(greedy_color(g, sorted(set(vs)), d["k"]))


def _brooks(g: Graph, d: dict, colors: dict[int, int]) -> None:
    """Brooks-color ``vs`` with ``delta`` colors, its maximum degree."""
    mask = _mask(g, d["vs"])
    delta, low = _delta_and_low(g.adj, mask)
    if delta != d["delta"]:
        raise GraphFormatError(f"brooks line says delta={d['delta']}, but its "
                               f"vertices have maximum degree {delta}")
    _brooks_by_degree(g.adj, mask, delta, low, colors)


ORACLE_CAP = bacso_tuza_bound(9)


def check_oracle_core(n: int) -> None:
    """Raise InternalInconsistencyError if a core of ``n`` vertices, about
    to go to the oracle, is over ``ORACLE_CAP``."""
    if n > ORACLE_CAP:
        raise InternalInconsistencyError(
            f"a {n}-vertex core reached the oracle, above its cap of {ORACLE_CAP} "
            "vertices (the Bacso-Tuza bound for a connected P5-free graph of maximum "
            "degree 9, as every core solve or apply_case_strategy colors is)")


def _oracle(g: Graph, d: dict, colors: dict[int, int]) -> None:
    """Color ``vs`` exactly with ``k`` colors; ``vs`` must be within the cap."""
    mask = _mask(g, d["vs"])
    if (n := mask.bit_count()) > ORACLE_CAP:
        raise GraphFormatError(f"oracle line over {n} vertices; the cap is {ORACLE_CAP}")
    assign = colorable_with(g, d["k"], mask=mask)
    if assign is None:
        raise InternalInconsistencyError(f"the oracle found no {d['k']}-coloring")
    colors.update(assign)


def _lemma1(g: Graph, d: dict, colors: dict[int, int]) -> None:
    """Reserve ``sets`` and color the rest of ``vs`` greedily along ``order``."""
    colors.update(color_with_independent_sets(g, d["sets"], d["k"], d["order"],
                                              _mask(g, d["vs"])).colors)


def _d1_extend(g: Graph, d: dict, colors: dict[int, int]) -> None:
    """List-color the removed catalog graph W: each vertex may take any color
    in 1..k that none of its colored neighbors outside W holds, a mask from
    one walk over them (other colors cost nothing).  A k outside 1..n, for
    a graph of order n, or a vertex listed twice in W is rejected first."""
    if not 1 <= d["k"] <= g.n:
        raise GraphFormatError(f"d1_extend line says k={d['k']}, outside 1..{g.n}")
    wm = _mask(g, d["w"])
    if wm.bit_count() != len(d["w"]):
        raise GraphFormatError(f"d1_extend line repeats a vertex in w={_fmt_vs(d['w'])}")
    lists = dict.fromkeys(bits(wm), (1 << d["k"] + 1) - 2)
    for u in lists:
        for x in bits(g.adj[u] & ~wm):
            if (c := colors.get(x, 0)) > 0 and lists[u] >> c & 1:
                lists[u] ^= 1 << c
    colors.update(extend_list_coloring(g, lists))


_VS, _K = Field("vs", VERTICES), Field("k", INT)

STEPS: dict[str, Step] = {
    "greedy": Step("color", (_VS, _K), _greedy),
    "brooks": Step("color", (_VS, Field("delta", INT)), _brooks),
    # case and branch are set only when a per-class strategy fell back
    "oracle": Step("color", (_VS, _K, Field("case", STR, None), Field("branch", STR, None)),
                   _oracle),
    "lemma1": Step("color", (_VS, Field("sets", SETS), Field("order", VERTICES), _K,
                             Field("case", STR, "-"), Field("branch", STR, "-"),
                             Field("fallback", BOOL, False)), _lemma1),
    "low_degree": Step("step", (Field("v", VERTEX), _K), lambda g, d, colors: first_fit(
        g.adj, _vertices(g, (d["v"],)), d["k"], colors)),
    "copycat": Step("step", (Field("a", VERTICES), Field("b", VERTICES)),
                    lambda g, d, colors: copy_colors(d["a"], d["b"], colors)),
    "d1_extend": Step("step", (Field("w", VERTICES), _K), _d1_extend),
    "clique_copy": Step("step", (Field("removed", VERTICES), Field("donor", VERTICES)),
                        lambda g, d, colors: copy_colors(d["removed"], d["donor"], colors)),
    "a7_peel": Step("step", (Field("removed", VERTICES), _K), lambda g, d, colors: first_fit(
        g.adj, _vertices(g, sorted(d["removed"])), d["k"], colors)),
    "delta_set": Step("step", (Field("i_set", VERTICES, tag="i"), Field("color", INT)),
                      lambda g, d, colors: colors.update(
                          dict.fromkeys(d["i_set"], d["color"]))),
}

# the header line is written and read like an event, with no apply
_GRAPH = Step("graph", (Field("n", COUNT), Field("m", COUNT), Field("degrees", HIST, ())))


def run_step(kind: str, data: dict, g: Graph, colors: dict[int, int],
             events: list | None) -> None:
    """Record the event in ``events`` (if given), then apply it to ``colors``."""
    if events is not None:
        events.append(TraceEvent(kind, data))
    STEPS[kind].apply(g, data, colors)


# -- the document ---------------------------------------------------------------

def dumps_trace(trace: ReductionTrace) -> str:
    lines = [
        _HEAD,
        _GRAPH.dump("graph", {"n": trace.n, "m": trace.m, "degrees": trace.degree_histogram}),
        f"palette {trace.palette}",
    ]
    for e in trace.events:
        step = STEPS.get(e.kind)
        if step is None:
            raise GraphFormatError(f"unknown trace event kind {e.kind!r}")
        lines.append(step.dump(f"{step.verb} {e.kind}", e.data))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _load_event(line: str) -> TraceEvent:
    toks = line.split()
    step = STEPS.get(toks[1]) if len(toks) > 1 else None
    if step is None or step.verb != toks[0]:
        raise GraphFormatError(f"unknown trace event: {line!r}")
    return TraceEvent(toks[1], step.load(line, toks[2:]))


def loads_trace(text: str) -> ReductionTrace:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("pentagem-trace"):
        raise GraphFormatError("not a trace document")
    if lines[0].split()[1:2] != [str(SCHEMA_VERSION)]:
        raise GraphFormatError(f"unsupported trace schema version: {lines[0]!r}")
    if len(lines) < 4 or lines[-1] != "end":
        raise GraphFormatError("truncated trace document")
    toks = lines[1].split()
    if lines[0] != _HEAD:
        raise _malformed(lines[0])
    if toks[0] != _GRAPH.verb:
        raise _malformed(lines[1])
    graph = _GRAPH.load(lines[1], toks[1:])
    try:
        palette = _int(lines[2].removeprefix("palette "))
    except ValueError:
        raise _malformed(lines[2]) from None
    events = [_load_event(ln) for ln in lines[3:-1]]
    return ReductionTrace(events, palette, graph["n"], graph["m"], graph["degrees"])
