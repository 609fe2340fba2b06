"""Spans around calls into pentagem's layers, recorded from outside the package.

``Tracer.install`` replaces every name under which a pentagem module holds
one of the functions in ``LAYERS`` with a timing wrapper, and ``remove``
puts the originals back.  Calls between pentagem modules, and calls inside
one module, look these names up at call time, so each one opens a span.
Spans stay in memory; ``take_pass`` folds them into per-function call
counts and self times (a span's duration minus its child spans').
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = {
    "graph": ("induced_subgraph", "connected_components"),
    "patterns": ("clique_number", "is_p5_gem_free", "find_induced",
                 "maximum_independent_set"),
    "reductions": ("find_low_degree", "find_copycat", "copycat_extend",
                   "find_d1_catalog", "extend_list_coloring", "brooks_color",
                   "hitting_mis", "delta_reduce"),
    "classify": ("classify",),
    "structure": ("match_expansion", "clique_reduce", "lift_coloring"),
    "strategies": ("apply_case_strategy",),
    "coloring": ("greedy_color", "color_with_independent_sets", "verify_coloring"),
    "oracle": ("colorable_with",),
    "trace": ("dumps_trace", "loads_trace"),
    "solver": ("solve", "replay_trace"),
    "graphio": ("parse_graph",),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.op = -1            # index of the input being solved, set by the caller
        self.fid: list[int] = []
        self.parent: list[int] = []
        self.ops: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn):
        fids, parents, ops, starts, ends, open_ = (
            self.fid, self.parent, self.ops, self.start, self.end, self._open)
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(open_[-1] if open_ else -1)
            ops.append(self.op)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()

        return timed

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "pentagem" or name.startswith("pentagem.")]
        for fid, name in enumerate(FUNCTIONS):
            mod, fn = name.split(".")
            orig = getattr(importlib.import_module(f"pentagem.{mod}"), fn)
            timed = self._wrap(fid, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, timed)
                        self._patched.append((m, attr, orig))

    def remove(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def take_pass(self, keep: bool) -> tuple[list[int], list[float], list[tuple]]:
        """Calls and self seconds per function since the last call, plus, if
        ``keep``, the spans themselves as (function, parent, op, start, end);
        then forget them."""
        calls = [0] * len(FUNCTIONS)
        self_s = [0.0] * len(FUNCTIONS)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        for i, f in enumerate(fids):
            dur = ends[i] - starts[i]
            calls[f] += 1
            self_s[f] += dur
            if parents[i] >= 0:
                self_s[fids[parents[i]]] -= dur
        spans = list(zip(fids, parents, self.ops, starts, ends)) if keep else []
        for buf in (self.fid, self.parent, self.ops, self.start, self.end):
            buf.clear()
        return calls, self_s, spans
