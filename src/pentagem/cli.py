"""Command-line front end.

Subcommands wrap the public operations: ``color`` (the headline solver),
``detect``, ``classify``, ``oracle``, ``verify``, ``gen``, ``replay``.

Exit codes: 0 success; 2 parse error or bad trace; 3 input is not (P5, gem)-free;
4 maximum degree below 9; 5 clique number at least the maximum degree;
6 internal inconsistency, or an input deep enough to exhaust Python's
recursion limit; 1 for other precondition or usage failures.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from .classify import classify
from .coloring import Coloring, verify_coloring
from .errors import (CliqueBoundError, DegreeRangeError, ForbiddenPatternError,
                     GraphFormatError, InternalInconsistencyError, PentagemError)
from .graph import Graph
from .graphio import FORMATS, ascii_digits, parse_graph, write_graph
from .instances import GenSpec, gallery_g1, gallery_g2, gen_class_instance
from .oracle import DEFAULT_ORACLE_CAP, exact_chromatic
from .patterns import find_induced
from .solver import replay_trace, solve
from .structure import TEMPLATES
from .trace import dumps_trace, loads_trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NOT_FREE = 3
EXIT_DEGREE = 4
EXIT_CLIQUE = 5
EXIT_INTERNAL = 6


def _read_text(path: str) -> str:
    """An input file's text; one that cannot be read as UTF-8 text is a
    parse error, like a malformed one."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GraphFormatError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    """Write an output file; one that cannot be written is a usage failure."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise PentagemError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _read_graph(path: str, fmt: str | None) -> Graph:
    return parse_graph(_read_text(path), fmt)


def _int(text: str) -> int:
    """``text`` as an integer, in ASCII digits after at most one ``-``: how
    every integer flag and each integer of a coloring file is read."""
    return int(ascii_digits(text))


_int.__name__ = "int"  # argparse's usage error names a flag's type: "invalid int value"


def _ints(text: str | None, what: str) -> list[int]:
    """A comma-separated list flag's integers; a bad one is a usage error."""
    out = []
    for item in text.split(",") if text else ():
        try:
            out.append(_int(item))
        except ValueError:
            raise PentagemError(f"{what} expects integers, got {item!r}") from None
    return out


def _print_coloring(coloring: Coloring) -> None:
    print(f"palette {coloring.k}")
    for v in sorted(coloring.colors):
        print(f"{v} {coloring.colors[v]}")


def cmd_color(args) -> int:
    g = _read_graph(args.graph, args.format)
    coloring, trace = solve(g)
    _print_coloring(coloring)
    if args.trace:
        _write_text(args.trace, dumps_trace(trace))
    return EXIT_OK


def cmd_detect(args) -> int:
    g = _read_graph(args.graph, args.format)
    wanted = ("P5", "GEM", "C5") if args.pattern == "all" else (args.pattern.upper(),)
    for p in wanted:
        w = find_induced(g, p)
        if w is None:
            print(f"{p}: none")
        else:
            print(f"{p}: " + " ".join(str(v) for v in w.vertices))
    return EXIT_OK


def cmd_classify(args) -> int:
    g = _read_graph(args.graph, args.format)
    label = classify(g)
    print(label.kind)
    if label.bags is not None:
        for name in TEMPLATES[label.kind].nodes:
            print(f"{name}: " + " ".join(str(v) for v in label.bags[name]))
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = _read_graph(args.graph, args.format)
    chi, _ = exact_chromatic(g, cap=args.max_oracle_n)
    print(f"chi = {chi}")
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _read_graph(args.graph, args.format)
    colors: dict = {}  # vertex -> color, and "palette" -> k
    for raw in _read_text(args.coloring).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            key, value = line.split()
            key, value = key if key == "palette" else _int(key), _int(value)
        except ValueError:
            raise GraphFormatError(f"bad coloring line: {line!r}") from None
        if key in colors:
            what = "the palette" if key == "palette" else f"vertex {key}"
            raise GraphFormatError(f"coloring line {line!r} repeats {what}")
        colors[key] = value
    k = colors.pop("palette", None)
    if k is None:
        k = max(colors.values(), default=0)
    ok = verify_coloring(g, Coloring(colors, k))
    print("valid" if ok else "invalid")
    return EXIT_OK if ok else EXIT_USAGE


def cmd_gen(args) -> int:
    if args.cls == "gallery-g1":
        g, bags = gallery_g1(), None
    elif args.cls == "gallery-g2":
        g, bags = gallery_g2(args.t), None
    else:
        sizes_list = _ints(args.sizes, "--sizes")
        t = TEMPLATES[args.cls]
        body = [n for n in t.nodes if n != t.pendant]
        if len(sizes_list) != len(body):
            raise PentagemError(
                f"class {args.cls} needs {len(body)} bag sizes, got {len(sizes_list)}")
        a7 = tuple(_ints(args.a7, "--a7"))
        spec = GenSpec(args.cls, dict(zip(body, sizes_list)), a7, args.mode, args.seed)
        g, bags = gen_class_instance(spec)
    text = write_graph(g, args.format or "edgelist")
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    if bags is not None and args.bags_out:
        lines = [f"{name}: " + " ".join(str(v) for v in vs) for name, vs in bags.items()]
        _write_text(args.bags_out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_replay(args) -> int:
    g = _read_graph(args.graph, args.format)
    trace = loads_trace(_read_text(args.trace))
    coloring = replay_trace(g, trace)
    if not verify_coloring(g, coloring):  # the trace, not the engine, is at fault
        c = coloring.colors
        v = next((v for v in range(g.n) if v not in c), None)
        if v is not None:
            raise GraphFormatError(f"replayed trace leaves vertex {v} uncolored")
        u, w = next((u, w) for u, w in g.edges() if c[u] == c[w])
        raise GraphFormatError(f"replayed trace gives both ends of edge {u}-{w} color {c[u]}")
    _print_coloring(coloring)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """argparse's usage error, on the usage exit code rather than 2."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # parsing leaves the parser as it was; building it costs ~2 ms
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pentagem",
        description="Color (P5, gem)-free graphs with one less color than "
                    "the maximum degree.")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help: str, *positionals: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        for arg in positionals:
            p.add_argument(arg)
        return p

    p = command("color", cmd_color, "run the solver on a graph file", "graph")
    p.add_argument("--trace", help="write the reduction trace here")
    p = command("detect", cmd_detect, "find induced P5 / gem / C5 witnesses", "graph")
    p.add_argument("--pattern", choices=("p5", "gem", "c5", "all"), default="all")
    command("classify", cmd_classify, "structure class of a connected graph", "graph")
    p = command("oracle", cmd_oracle, "exact chromatic number (desk scale)", "graph")
    p.add_argument("--max-oracle-n", type=_int, default=DEFAULT_ORACLE_CAP,
                   help=f"size cap (default {DEFAULT_ORACLE_CAP})")
    command("verify", cmd_verify, "check a coloring file against a graph file",
            "graph", "coloring")
    p = command("gen", cmd_gen, "generate a class member or gallery graph")
    p.add_argument("cls", metavar="class",
                   choices=sorted(TEMPLATES) + ["gallery-g1", "gallery-g2"])
    p.add_argument("--sizes", help="comma-separated bag sizes in template order")
    p.add_argument("--a7", help="comma-separated pendant component sizes (class H)")
    p.add_argument("--mode", choices=("clique", "cograph"), default="clique")
    p.add_argument("--t", type=_int, default=9, help="parameter for gallery-g2")
    p.add_argument("--out", help="write the graph here (default stdout)")
    p.add_argument("--bags-out", help="write the ground-truth bags here")
    p.add_argument("--seed", type=_int, default=0, help="seed for cograph bags")
    command("replay", cmd_replay, "re-execute a trace and verify it", "graph", "trace")
    for p in sub.choices.values():  # added last, so it stays last in each usage line
        p.add_argument("--format", choices=FORMATS, default=None,
                       help="input format (default: sniff)")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ForbiddenPatternError as exc:
        w = exc.witness
        detail = f" witness: {' '.join(map(str, w.vertices))}" if w else ""
        print(f"error: {exc}.{detail}", file=sys.stderr)
        return EXIT_NOT_FREE
    except DegreeRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGREE
    except CliqueBoundError as exc:
        w = exc.witness
        detail = f" clique: {' '.join(map(str, w))}" if w else ""
        print(f"error: {exc}.{detail}", file=sys.stderr)
        return EXIT_CLIQUE
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except RecursionError:
        print("internal inconsistency: recursion limit exceeded", file=sys.stderr)
        return EXIT_INTERNAL
    except PentagemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
