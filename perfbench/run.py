"""pentagem benchmark: one closed-loop caller, one thread, seeded workloads.

    python3 perfbench/run.py --workload sweep9 --seed 1 --seconds 20 --trace 0

Each operation is what a ``pentagem color`` user waits for: parse graph6
text and solve (the solve latency), then dump, reload and replay the trace
(the replay latency).  Every operation is checked: the benchmark's own
checker accepts the coloring, at most Delta-1 colors are used, and the
replay reproduces the solve's colors exactly.

A run sets up ``SETUP_REPEATS`` times (fresh import of pentagem plus input
generation), makes one untimed warm-up pass, then times whole passes over
the inputs, each in a new seeded order, until the next pass would end more
than ``--seconds`` after the first began.  Every operation is timed on its
own and every time is stated at a reference machine speed (see
``speed.py``).  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it times each layer through ``tracing.Tracer`` and prints the
per-layer metrics, counted per pass.  The last line of standard output is
the JSON result, also written under ``perfbench/out/`` with the span dump of
the first traced pass.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
EVENT_KINDS = ("greedy", "brooks", "oracle", "lemma1", "low_degree", "copycat",
               "clique_copy", "d1_extend", "a7_peel", "delta_set", "lift")


class Fail(Exception):
    """A run that cannot produce a result."""


def load_pentagem():
    """Import pentagem afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "pentagem" or m.startswith("pentagem.")]:
        del sys.modules[name]
    pkg = importlib.import_module("pentagem")
    if Path(pkg.__file__).resolve().parent != SRC / "pentagem":
        raise Fail(f"imported pentagem from {pkg.__file__}, not from {SRC}")
    for mod in tracing.LAYERS:
        importlib.import_module(f"pentagem.{mod}")


def setup(workload: str, seed: int, clock):
    """Set up ``SETUP_REPEATS`` times; returns each set-up's start and end on
    ``clock`` and the last set-up's inputs."""
    if not (SRC / "pentagem" / "__init__.py").is_file():
        raise Fail(f"no pentagem package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        load_pentagem()
        inputs = workloads.BUILDERS[workload](seed)
        spans.append((t0, clock()))
    return spans, inputs


def operate(inp: workloads.Input, clock):
    """One operation; returns the solve's coloring and trace, the trace text,
    the replayed coloring, and the start, end of solve and end of replay on
    ``clock``."""
    graphio = sys.modules["pentagem.graphio"]
    solver = sys.modules["pentagem.solver"]
    trace = sys.modules["pentagem.trace"]
    t0 = clock()
    g = graphio.parse_graph(inp.g6, "graph6")
    coloring, tr = solver.solve(g)
    t1 = clock()
    text = trace.dumps_trace(tr)
    replayed = solver.replay_trace(g, trace.loads_trace(text))
    t2 = clock()
    return coloring, tr, text, replayed, (t0, t1, t2)


def op_errors(inp: workloads.Input, coloring, replayed) -> list[str]:
    errors = check.coloring_errors(inp.n, inp.edges, coloring.colors)
    top = check.max_degree(inp.n, inp.edges) - 1
    if coloring.k > top or len(set(coloring.colors.values())) > top:
        errors.append(f"palette {coloring.k} wider than Delta-1 = {top}")
    if replayed.colors != coloring.colors:
        errors.append("replayed colors differ from the solve's")
    return errors


def reach_errors(workload: str, inputs, traces) -> list[str]:
    """Whether the warm-up pass reached the layers the workload claims."""
    events = count_events(traces)
    errors = []
    if workload == "sweep9" and not (events["events.brooks"] and events["events.low_degree"]):
        errors.append("sweep9 recorded no brooks or no low_degree event")
    if workload == "core9" and not (events["events.lemma1"] and events["events.d1_extend"]
                                    and events["lemma1.fallbacks"] == 0):
        errors.append(f"core9 needs lemma1 and d1_extend events and no fallback: {events}")
    if workload == "delta":
        missing = [inp.name for inp, tr in zip(inputs, traces)
                   if tr is None or not any(e.kind == "delta_set" for e in tr.events)]
        if missing:
            errors.append(f"no delta_set event on {missing[:3]}")
    if workload == "scale":
        missing = [inp.name for inp, tr in zip(inputs, traces)
                   if tr is None and inp.name.startswith("caterpillar")]
        if missing:
            errors.append(f"caterpillars not colored: {missing}")
    return errors


def count_events(traces) -> dict[str, int]:
    counts = {f"events.{k}": 0 for k in EVENT_KINDS}
    counts["lemma1.fallbacks"] = 0
    for tr in traces:
        for e in tr.events if tr is not None else ():
            counts[f"events.{e.kind}"] += 1
            if e.kind == "lemma1":
                counts["lemma1.fallbacks"] += int(e.data.get("fallback", False))
    return counts


class Run:
    """Counts, timings and check results of one run."""

    def __init__(self, inputs, clock) -> None:
        self.inputs = inputs
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.timed: list[tuple[int, tuple[float, float, float]]] = []

    def one(self, i: int, timed: bool):
        """Run and check one operation; returns its trace and trace text, or
        (None, None) if it raised."""
        inp = self.inputs[i]
        self.attempted += 1
        try:
            coloring, tr, text, replayed, marks = operate(inp, self.clock)
        except Exception as exc:  # an operation that fails is counted, not fatal
            self.failed += 1
            print(f"{inp.name}: {type(exc).__name__}: {exc}"[:300], file=sys.stderr)
            return None, None
        for err in op_errors(inp, coloring, replayed):
            self.errors.append(f"{inp.name}: {err}")
        if timed:
            self.timed.append((i, marks))
        return tr, text


def measure(workload: str, seed: int, seconds: float, traced: bool):
    with speed.Speed() as sp:
        setups, inputs = setup(workload, seed, sp.clock)
        gc.collect()
        gc.freeze()
        run = Run(inputs, sp.clock)
        warm = [run.one(i, timed=False) for i in range(len(inputs))]
        # before the timed passes, whose sample lists grow with machine speed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer = tracing.Tracer(sp.clock) if traced else None
        passes = []         # per pass: calls, raw self seconds, start, end
        spans = []
        rng = random.Random(seed)
        order = list(range(len(inputs)))
        if tracer:
            tracer.install()
        try:
            deadline = time.perf_counter() + seconds
            while True:
                p0, r0 = sp.clock(), time.perf_counter()
                rng.shuffle(order)
                for i in order:
                    if tracer:
                        tracer.op = i
                    run.one(i, timed=True)
                p1 = sp.clock()
                if tracer:
                    calls, self_s, kept = tracer.take_pass(keep=not passes)
                    spans = spans or kept
                    passes.append((calls, self_s, p0, p1))
                now = time.perf_counter()
                if now + (now - r0) > deadline:
                    break
        finally:
            if tracer:
                tracer.remove()

    traces = [tr for tr, _ in warm]
    run.errors += reach_errors(workload, inputs, traces)
    solve_s = [[] for _ in inputs]
    replay_s = [[] for _ in inputs]
    raw = []
    for i, (t0, t1, t2) in run.timed:
        solve_s[i].append((t1 - t0) * sp.factor(t0, t1))
        replay_s[i].append((t2 - t1) * sp.factor(t1, t2))
        raw.append(t1 - t0)
    solves = [s for xs in solve_s for s in xs]
    info = {"passes": len(solve_s[0]), "inputs": len(inputs), "samples": len(solves),
            "speed_samples": len(sp.loop_s),
            "loop_ms_p50": statistics.median(sp.loop_s) * 1000,
            "raw_solve_ms_p50": statistics.median(raw) * 1000,
            "solve_ms_p50": statistics.median(solves) * 1000}
    if traced:
        scaled = [(calls, [x * sp.factor(p0, p1) for x in self_s])
                  for calls, self_s, p0, p1 in passes]
        metrics = layer_metrics(scaled, count_events(traces), run)
    else:
        setup_s = statistics.median((t1 - t0) * sp.factor(t0, t1) for t0, t1 in setups)
        trace_bytes = sum(len(text.encode()) for _, text in warm if text is not None)
        metrics = end_to_end(setup_s, inputs, solve_s, replay_s, trace_bytes, peak_rss_mb)
    return run, metrics, info, spans


def end_to_end(setup_s, inputs, solve_s, replay_s, trace_bytes: int,
               peak_rss_mb: float) -> dict:
    """Throughput is over one pass at each input's median solve latency,
    counting the inputs whose operations did not fail."""
    solves = [s for xs in solve_s for s in xs]
    replays = [s for xs in replay_s for s in xs]
    done = [(inp, xs) for inp, xs in zip(inputs, solve_s) if xs]
    pass_s = sum(statistics.median(xs) for _, xs in done)
    return {
        "setup_s": (setup_s, "s"),
        "graphs_per_s": (len(done) / pass_s, "1/s"),
        "vertices_per_s": (sum(inp.n for inp, _ in done) / pass_s, "1/s"),
        "solve_ms_p50": (statistics.median(solves) * 1000, "ms"),
        "solve_ms_p90": (statistics.quantiles(solves, n=10)[-1] * 1000, "ms"),
        "replay_ms_p50": (statistics.median(replays) * 1000, "ms"),
        "trace_bytes": (trace_bytes, "B"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def layer_metrics(per_pass, events: dict[str, int], run: Run) -> dict:
    metrics = {}
    for f, name in enumerate(tracing.FUNCTIONS):
        calls = {p[0][f] for p in per_pass}
        if len(calls) != 1:
            run.errors.append(f"{name} call count differs between passes: {sorted(calls)}")
        metrics[f"{name}.calls"] = (per_pass[0][0][f], "count")
        metrics[f"{name}.self_ms"] = (statistics.median(p[1][f] for p in per_pass) * 1000, "ms")
    for name, value in events.items():
        metrics[name] = (value, "count")
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "pentagem").glob("*.py"))
    metrics["src.lines"] = (lines, "lines")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        run, metrics, info, spans = measure(args.workload, args.seed, args.seconds,
                                            bool(args.trace))
    except Fail as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for err in run.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    info.update(attempted=run.attempted, failed=run.failed, errors=len(run.errors))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in info.items()), file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if spans:
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"functions": tracing.FUNCTIONS, "inputs": [i.name for i in run.inputs],
             "fields": ["function", "parent", "input", "start_s", "end_s"],
             "spans": spans}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
