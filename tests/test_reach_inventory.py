"""What ``solve``, replay and the CLI reach in ``src/pentagem``.

One pass under ``sys.setprofile`` runs parse, solve, dump, load and replay
over one vertex order of each graph of the four benchmark workloads at
seed 7, then solve, dump, load and replay over ``prism_cores`` (the
inputs that reach the Perfect branch and the oracle), then each CLI
subcommand once through ``cli.main``, with ``gen`` writing each format
and ``detect`` reading DIMACS.  Every ``def`` in the package that
the pass never calls is listed in ``UNCALLED`` with the reason it stays,
which begins with one of ``KINDS``.  The test fails when a function stops
being called without being listed, and when a listed one is called or
gone.  The names ``perfbench/tracing.py`` times by name (its ``LAYERS``)
must resolve, so those the pass never calls are listed as such, and the
two lists are checked against each other.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import pentagem
from pentagem import cli
from pentagem.graph import cycle_graph
from pentagem.graphio import parse_graph, write_edgelist
from pentagem.instances import gallery_g2
from pentagem.solver import replay_trace, solve
from pentagem.trace import dumps_trace, loads_trace

from helpers import benchmark_inputs, prism_cores

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

IMPORT, ERROR, CLI_ERROR, LIBRARY, LAYERS, UNREACHED = KINDS = (
    "import time", "error path", "CLI-only error path", "library API",
    "named in LAYERS", "engine path")

UNCALLED = {
    "cli._Parser.error": f"{CLI_ERROR}: argparse's usage error",
    "cographs.cograph_split": f"{LIBRARY}: the split behind is_cograph and the palette coloring",
    "cographs.is_cograph": LIBRARY,
    "cographs.cograph_optimal_coloring": LIBRARY,
    "cographs.cograph_coloring_with_palette": f"{LIBRARY}: the clique reduction's lift",
    "errors.ForbiddenPatternError.__init__": ERROR,
    "errors.CliqueBoundError.__init__": ERROR,
    "graph.Graph.degree": LIBRARY,
    "graph.Graph.neighbors": LIBRARY,
    "graph.Graph.min_degree": LIBRARY,
    "graph.Graph.__eq__": LIBRARY,
    "graph.Graph.__hash__": LIBRARY,
    "graph.Graph.__repr__": LIBRARY,
    "graph.join": LIBRARY,
    "graph.disjoint_union": LIBRARY,
    "graph.complement": f"{LIBRARY}: maximum_independent_set's complement",
    "graph.complete_graph": LIBRARY,
    "graph.empty_graph": LIBRARY,
    "graph.cycle_graph": LIBRARY,
    "graph.path_graph": LIBRARY,
    "graphio._Codecs.__missing__": f"{ERROR}: a format name that is not in the table",
    "instances.gallery_g1": f"{LIBRARY}: also pentagem gen gallery-g1",
    "instances.gallery_g2": f"{LIBRARY}: also pentagem gen gallery-g2",
    "instances._random_cograph_edges": f"{LIBRARY}: cograph bags, also pentagem gen --mode cograph",
    "instances.gen_target_delta": LIBRARY,
    "instances.gen_target_delta.<locals>.build": LIBRARY,
    "patterns.PatternWitness.check": LIBRARY,
    "patterns.maximum_independent_set": LAYERS,
    "reductions.find_low_degree": LAYERS,
    "reductions.copycat_extend": LAYERS,
    "reductions.brooks_color": LAYERS,
    "reductions._brooks_component": f"{UNREACHED}: Brooks on a Delta-regular component",
    "reductions._connected_without": f"{UNREACHED}: Brooks on a Delta-regular component",
    "solver._raise_if_not_free": f"{ERROR}: a pattern witness once the gate or engine fails",
    "solver.color8": LIBRARY,
    "strategies._color_without": f"{LIBRARY}: H's strategy, which solve never runs",
    "strategies._strategy_h": f"{LIBRARY}: H's strategy, which solve never runs",
    "structure.Template.__post_init__": IMPORT,
    "structure.Template.__post_init__.<locals>.relation": IMPORT,
    "structure._template": IMPORT,
    "structure.clique_reduce": LAYERS,
    "structure.lift_coloring": LAYERS,
    "trace.Step.__init__": IMPORT,
    "trace._malformed": f"{ERROR}: a trace line that does not parse",
}


def _defs() -> set[str]:
    """Every ``def`` in the package as ``module.qualname``."""
    found = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    for path in sorted(Path(pentagem.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem + ".")
    return found


def _run_and_replay(g) -> None:
    coloring, trace = solve(g)
    assert replay_trace(g, loads_trace(dumps_trace(trace))).colors == coloring.colors


def _reached(tmp_path, capsys) -> set[str]:
    """The package functions one pass over the inputs above calls, as
    ``module.qualname``."""
    texts = [inp.g6 for name in ("sweep9", "core9", "delta", "scale")
             for inp in benchmark_inputs(name, 7)
             if "#" not in inp.name or inp.name.endswith("#0")]
    cores = prism_cores()
    g2, c5, h, g2_col = (str(tmp_path / name) for name in ("g2.el", "c5.el", "h.el", "g2.col"))
    Path(g2).write_text(write_edgelist(gallery_g2(9)))
    Path(c5).write_text(write_edgelist(cycle_graph(5)))
    trace, colors = str(tmp_path / "g2.trace"), str(tmp_path / "g2.colors")
    commands = [["detect", g2],
                ["gen", "G2", "--sizes", "1,1,1,1,1,1", "--format", "dimacs", "--out", g2_col],
                ["detect", g2_col, "--format", "dimacs"],
                ["gen", "G1", "--sizes", "1,1,1,1,1", "--format", "graph6",
                 "--out", str(tmp_path / "g1.g6")],
                ["gen", "H", "--sizes", "1,1,1,1,1,2", "--a7", "1", "--out", h,
                 "--bags-out", str(tmp_path / "h.bags")],
                ["classify", h], ["oracle", c5], ["verify", g2, colors], ["replay", g2, trace]]
    cli.build_parser.cache_clear()  # so that the pass builds the parser
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for text in texts:
            _run_and_replay(parse_graph(text, "graph6"))
        for g in cores:
            _run_and_replay(g)
        assert cli.main(["color", g2, "--trace", trace]) == 0
        Path(colors).write_text(capsys.readouterr().out)
        for argv in commands:
            assert cli.main(argv) == 0, argv
    finally:
        sys.setprofile(None)
    assert len(texts) == 634  # one order of each workload graph
    root = Path(pentagem.__file__).parent
    return {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in codes
            if Path(c.co_filename).parent == root}


def _layers() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return set(tracing.FUNCTIONS)


def test_every_function_solve_replay_and_the_cli_leave_uncalled_is_listed(tmp_path, capsys):
    uncalled = _defs() - _reached(tmp_path, capsys)
    assert sorted(uncalled - set(UNCALLED)) == [], "uncalled but not listed"
    assert sorted(set(UNCALLED) - uncalled) == [], "listed but called, or gone"
    assert all(reason.split(":")[0] in KINDS for reason in UNCALLED.values())
    # a traced name the pass never calls is listed as one, and no other is
    assert {name for name, reason in UNCALLED.items() if reason == LAYERS} == \
        _layers() & uncalled
