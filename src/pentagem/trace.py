"""Reduction traces: an ordered, replayable log of how a coloring was built.

Events are recorded in the order the solver commits colors, so a forward
pass over the document recolors the graph deterministically: terminal events
color a whole subproblem, extension events color removed pieces from data
already on the board.  The text format is line-based, versioned, and
round-trips losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphFormatError
from .graph import Graph

__all__ = ["TraceEvent", "ReductionTrace", "fingerprint", "dumps_trace", "loads_trace"]

SCHEMA_VERSION = 1

# kinds that color a fresh subproblem versus kinds that extend one
TERMINAL_KINDS = {"greedy", "brooks", "oracle", "lemma1"}
EXTEND_KINDS = {"low_degree", "copycat", "d1_extend", "clique_copy",
                "a7_peel", "delta_set", "lift"}


@dataclass(frozen=True)
class TraceEvent:
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
    for v in range(g.n):
        d = g.degree(v)
        hist[d] = hist.get(d, 0) + 1
    return g.n, g.m, tuple(sorted(hist.items()))


def _fmt_vs(vs) -> str:
    return ",".join(str(v) for v in vs) if vs else "-"


def _parse_vs(tok: str) -> tuple[int, ...]:
    if tok == "-":
        return ()
    return tuple(int(x) for x in tok.split(","))


def _fmt_sets(sets) -> str:
    return ";".join(_fmt_vs(s) for s in sets) if sets else "-"


def _parse_sets(tok: str) -> tuple[tuple[int, ...], ...]:
    if tok == "-":
        return ()
    return tuple(_parse_vs(p) for p in tok.split(";"))


def _event_to_line(e: TraceEvent) -> str:
    d = e.data
    if e.kind == "low_degree":
        return f"step low_degree v={d['v']} k={d['k']}"
    if e.kind == "copycat":
        return f"step copycat a={_fmt_vs(d['a'])} b={_fmt_vs(d['b'])}"
    if e.kind == "d1_extend":
        return f"step d1_extend w={_fmt_vs(d['w'])} k={d['k']}"
    if e.kind == "clique_copy":
        return (f"step clique_copy removed={_fmt_vs(d['removed'])} "
                f"donor={_fmt_vs(d['donor'])}")
    if e.kind == "a7_peel":
        return f"step a7_peel removed={_fmt_vs(d['removed'])} k={d['k']}"
    if e.kind == "delta_set":
        return f"step delta_set i={_fmt_vs(d['i_set'])} color={d['color']}"
    if e.kind == "lift":
        units = "|".join(f"{_fmt_vs(u)}>{_fmt_vs(k)}" for u, k in d["units"])
        return f"step lift units={units}"
    if e.kind == "greedy":
        return f"color greedy vs={_fmt_vs(d['vs'])} k={d['k']}"
    if e.kind == "brooks":
        return f"color brooks vs={_fmt_vs(d['vs'])} delta={d['delta']}"
    if e.kind == "oracle":
        # case and branch are set only when a per-class strategy fell back
        where = (f" case={d['case']} branch={d['branch']}"
                 if "case" in d else "")
        return f"color oracle vs={_fmt_vs(d['vs'])} k={d['k']}{where}"
    if e.kind == "lemma1":
        return (f"color lemma1 vs={_fmt_vs(d['vs'])} sets={_fmt_sets(d['sets'])} "
                f"order={_fmt_vs(d['order'])} k={d['k']} case={d.get('case', '-')} "
                f"branch={d.get('branch', '-')} fallback={int(d.get('fallback', False))}")
    raise GraphFormatError(f"unknown trace event kind {e.kind!r}")


def _line_to_event(line: str) -> TraceEvent:
    toks = line.split()
    kv = {}
    for t in toks[2:]:
        key, _, val = t.partition("=")
        kv[key] = val
    kind = toks[1]
    try:
        if kind == "low_degree":
            return TraceEvent(kind, {"v": int(kv["v"]), "k": int(kv["k"])})
        if kind == "copycat":
            return TraceEvent(kind, {"a": _parse_vs(kv["a"]), "b": _parse_vs(kv["b"])})
        if kind == "d1_extend":
            return TraceEvent(kind, {"w": _parse_vs(kv["w"]), "k": int(kv["k"])})
        if kind == "clique_copy":
            return TraceEvent(kind, {"removed": _parse_vs(kv["removed"]),
                                     "donor": _parse_vs(kv["donor"])})
        if kind == "a7_peel":
            return TraceEvent(kind, {"removed": _parse_vs(kv["removed"]), "k": int(kv["k"])})
        if kind == "delta_set":
            return TraceEvent(kind, {"i_set": _parse_vs(kv["i"]), "color": int(kv["color"])})
        if kind == "lift":
            units = tuple(tuple(_parse_vs(h) for h in part.split(">"))
                          for part in kv["units"].split("|"))
            return TraceEvent(kind, {"units": units})
        if kind == "greedy":
            return TraceEvent(kind, {"vs": _parse_vs(kv["vs"]), "k": int(kv["k"])})
        if kind == "brooks":
            return TraceEvent(kind, {"vs": _parse_vs(kv["vs"]), "delta": int(kv["delta"])})
        if kind == "oracle":
            data = {"vs": _parse_vs(kv["vs"]), "k": int(kv["k"])}
            if "case" in kv:
                data.update(case=kv["case"], branch=kv["branch"])
            return TraceEvent(kind, data)
        if kind == "lemma1":
            return TraceEvent(kind, {
                "vs": _parse_vs(kv["vs"]),
                "sets": _parse_sets(kv["sets"]),
                "order": _parse_vs(kv["order"]),
                "k": int(kv["k"]),
                "case": kv.get("case", "-"),
                "branch": kv.get("branch", "-"),
                "fallback": bool(int(kv.get("fallback", "0"))),
            })
    except (KeyError, ValueError) as exc:
        raise GraphFormatError(f"malformed trace line: {line!r}") from exc
    raise GraphFormatError(f"unknown trace event kind {kind!r}")


def dumps_trace(trace: ReductionTrace) -> str:
    hist = ",".join(f"{d}:{c}" for d, c in trace.degree_histogram)
    lines = [
        f"pentagem-trace {SCHEMA_VERSION}",
        f"graph n={trace.n} m={trace.m} degrees={hist or '-'}",
        f"palette {trace.palette}",
    ]
    lines.extend(_event_to_line(e) for e in trace.events)
    lines.append("end")
    return "\n".join(lines) + "\n"


def loads_trace(text: str) -> ReductionTrace:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("pentagem-trace"):
        raise GraphFormatError("not a trace document")
    version = lines[0].split()[1]
    if int(version) != SCHEMA_VERSION:
        raise GraphFormatError(f"unsupported trace schema version {version}")
    if len(lines) < 4 or lines[-1] != "end":
        raise GraphFormatError("truncated trace document")
    gtoks = dict(t.partition("=")[::2] for t in lines[1].split()[1:])
    hist_tok = gtoks.get("degrees", "-")
    hist = (tuple(tuple(int(x) for x in p.split(":")) for p in hist_tok.split(","))
            if hist_tok != "-" else ())
    palette = int(lines[2].split()[1])
    events = [_line_to_event(ln) for ln in lines[3:-1]]
    return ReductionTrace(events, palette, int(gtoks["n"]), int(gtoks["m"]), hist)
