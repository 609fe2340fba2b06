import time
from pathlib import Path

import pytest

from pentagem import cli, solver
from pentagem.cli import main
from pentagem.graph import (complete_graph, cycle_graph, disjoint_union, empty_graph,
                            join, path_graph)
from pentagem.graphio import parse_graph, write_edgelist, write_graph6
from pentagem.instances import gallery_g1, gallery_g2
from pentagem.patterns import PatternWitness
from pentagem.trace import ReductionTrace, TraceEvent, dumps_trace, fingerprint

from helpers import (benchmark_inputs, caterpillar, gate_pins, k9_with_ears, non_clique_core,
                     prism_cores, random_graph)


def write(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_color_gallery_g2(tmp_path, capsys):
    path = write(tmp_path, "g2.el", write_edgelist(gallery_g2(9)))
    assert main(["color", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "palette 8"


def test_color_writes_trace_and_replay_agrees(tmp_path, capsys):
    path = write(tmp_path, "g2.el", write_edgelist(gallery_g2(10)))
    trace = str(tmp_path / "trace.txt")
    assert main(["color", path, "--trace", trace]) == 0
    colored = capsys.readouterr().out
    assert main(["replay", path, trace]) == 0
    replayed = capsys.readouterr().out
    assert replayed == colored


def test_color_rejects_p5(tmp_path, capsys):
    path = write(tmp_path, "p5.el", write_edgelist(path_graph(5)))
    assert main(["color", path]) == 3
    assert "P5" in capsys.readouterr().err


def test_color_colors_k9_with_ears_through_degree_reduction(tmp_path, capsys):
    # a gem outside the gate's reach: the input is colored, which the README
    # allows for a graph outside the class
    path = write(tmp_path, "ears.el", write_edgelist(k9_with_ears()))
    trace = str(tmp_path / "ears.trace")
    assert main(["color", path, "--trace", trace]) == 0
    colored = capsys.readouterr().out
    assert colored.splitlines()[0] == "palette 9"
    assert main(["verify", path, write(tmp_path, "ears.colors", colored)]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    assert main(["replay", path, trace]) == 0
    assert capsys.readouterr().out == colored


def test_color_rejects_low_degree(tmp_path, capsys):
    path = write(tmp_path, "g1.el", write_edgelist(gallery_g1()))
    assert main(["color", path]) == 4


def test_color_rejects_clique_at_delta(tmp_path, capsys):
    path = write(tmp_path, "k10.el", write_edgelist(complete_graph(10)))
    assert main(["color", path]) == 5


@pytest.mark.parametrize("name, code, detail", [
    ("K10", 5, "clique number 10 exceeds 8. clique: 0 1 2 3 4 5 6 7 8 9"),
    ("K9 with a pendant", 5, "clique number 9 exceeds 8. clique: 1 2 3 4 5 6 7 8 9"),
    ("2K1 joined to K10", 5, "clique number 11 exceeds 10. clique: 0 2 3 4 5 6 7 8 9 10 11"),
    ("K9 with a pendant beside a gem", 3,
     "graph contains an induced GEM (11, 12, 13, 14, 10). witness: 11 12 13 14 10"),
])
def test_color_reports_the_gate_witness(tmp_path, capsys, name, code, detail):
    path = write(tmp_path, "g.el", write_edgelist(gate_pins()[name]))
    assert main(["color", path]) == code
    assert one_error_line(capsys) == f"error: {detail}\n"


def test_color_reports_a_1100_vertex_clique(tmp_path, capsys):
    path = write(tmp_path, "k1100.g6", write_graph6(complete_graph(1100)))
    assert main(["color", path]) == 5
    assert one_error_line(capsys) == ("error: clique number 1100 exceeds 1098. clique: "
                                      + " ".join(map(str, range(1100))) + "\n")


def test_color_and_replay_a_perfect_core(tmp_path, capsys):
    for i, g in enumerate(prism_cores()):
        path = write(tmp_path, f"prism{i}.el", write_edgelist(g))
        trace = tmp_path / f"prism{i}.trace"
        assert main(["color", path, "--trace", str(trace)]) == 0
        colored = capsys.readouterr().out
        assert colored.splitlines()[0] == "palette 8"
        assert trace.read_text().splitlines()[3:] == [
            "color oracle vs=" + ",".join(map(str, range(14))) + " k=7", "end"]
        assert main(["replay", path, str(trace)]) == 0
        assert capsys.readouterr().out == colored


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.el", "not a graph at all\n")
    assert main(["color", path]) == 2


@pytest.mark.parametrize("name, text", [("huge.col", "p edge 100000000000000 0\n"),
                                        ("huge.el", "100000000000000 0\n")])
def test_a_huge_vertex_count_is_a_parse_error(tmp_path, capsys, name, text):
    # once a raw MemoryError traceback, exit 1
    assert main(["color", write(tmp_path, name, text)]) == 2
    assert one_error_line(capsys) == (
        "error: 100000000000000 vertices is above the supported 262143\n")


def test_detect_c5(tmp_path, capsys):
    from pentagem.graph import cycle_graph
    path = write(tmp_path, "c5.el", write_edgelist(cycle_graph(5)))
    assert main(["detect", path]) == 0
    out = capsys.readouterr().out
    assert "C5: 0 1 2 3 4" in out
    assert "P5: none" in out


def test_classify_c5(tmp_path, capsys):
    from pentagem.graph import cycle_graph
    path = write(tmp_path, "c5.el", write_edgelist(cycle_graph(5)))
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "G1"
    assert len(out) == 6


def test_oracle_gallery_g1(tmp_path, capsys):
    path = write(tmp_path, "g1.el", write_edgelist(gallery_g1()))
    assert main(["oracle", path]) == 0
    assert capsys.readouterr().out.strip() == "chi = 8"


def test_gen_color_verify_replay_round_trip(tmp_path, capsys):
    graph_path = str(tmp_path / "m.el")
    bags_path = str(tmp_path / "m.bags")
    assert main(["gen", "G2", "--sizes", "2,3,1,1,3,2", "--out", graph_path,
                 "--bags-out", bags_path]) == 0
    assert Path(bags_path).read_text().startswith("Q1:")
    trace_path = str(tmp_path / "m.trace")
    assert main(["color", graph_path, "--trace", trace_path]) == 0
    coloring = capsys.readouterr().out
    col_path = write(tmp_path, "m.colors", coloring)
    assert main(["verify", graph_path, col_path]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    assert main(["replay", graph_path, trace_path]) == 0
    assert capsys.readouterr().out == coloring


def test_verify_flags_bad_coloring(tmp_path, capsys):
    from pentagem.graph import cycle_graph
    path = write(tmp_path, "c5.el", write_edgelist(cycle_graph(5)))
    bad = write(tmp_path, "bad.colors", "palette 3\n0 1\n1 1\n2 2\n3 1\n4 2\n")
    assert main(["verify", path, bad]) == 1
    assert capsys.readouterr().out.strip() == "invalid"


def test_gen_gallery_graphs(tmp_path, capsys):
    out = str(tmp_path / "g.el")
    assert main(["gen", "gallery-g2", "--t", "11", "--out", out]) == 0
    g = parse_graph(Path(out).read_text())
    assert g.max_degree() == 11


def test_formats_flag(tmp_path, capsys):
    from pentagem.graphio import write_dimacs
    from pentagem.graph import cycle_graph
    path = write(tmp_path, "c5.col", write_dimacs(cycle_graph(5)))
    assert main(["oracle", path, "--format", "dimacs"]) == 0
    assert capsys.readouterr().out.strip() == "chi = 3"


def test_the_oracle_cap_is_set_by_its_flag(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "big.el", write_edgelist(empty_graph(30)))
    assert main(["oracle", path]) == 1  # over the default cap of 24
    assert main(["oracle", path, "--max-oracle-n", "20"]) == 1
    capsys.readouterr()
    # the environment variable that once set the cap is ignored
    monkeypatch.setenv("PENTAGEM_ORACLE_CAP", "40")
    assert main(["oracle", path]) == 1
    assert main(["oracle", path, "--max-oracle-n", "35"]) == 0
    assert capsys.readouterr().out.strip() == "chi = 1"


def test_gen_cograph_mode_seeded(tmp_path, capsys):
    out1 = str(tmp_path / "a.el")
    out2 = str(tmp_path / "b.el")
    args = ["gen", "G1", "--sizes", "3,2,2,1,1", "--mode", "cograph",
            "--seed", "5"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert Path(out1).read_text() == Path(out2).read_text()


@pytest.mark.parametrize("command", ["color", "detect", "classify", "oracle",
                                     "verify", "replay"])
def test_seed_is_a_usage_error_outside_gen(tmp_path, capsys, command):
    path = write(tmp_path, "g2.el", write_edgelist(gallery_g2(9)))
    paths = [path, path] if command in ("verify", "replay") else [path]
    with pytest.raises(SystemExit) as info:
        main([command, *paths, "--seed", "5"])
    assert info.value.code == 1
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_missing_file_is_a_parse_error(capsys):
    assert main(["color", "/nonexistent/graph.el"]) == 2


@pytest.mark.parametrize("argv, message", [
    ([], "pentagem: error: the following arguments are required: command"),
    (["paint"], "pentagem: error: argument command: invalid choice: 'paint'"),
    (["color"], "pentagem color: error: the following arguments are required: graph"),
    (["color", "g.el", "--frobnicate"], "pentagem: error: unrecognized arguments: --frobnicate"),
])
def test_usage_errors_exit_1_with_argparse_message(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: pentagem") and message in err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["color", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out
    assert cli.build_parser() is cli.build_parser()


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("text", ["p edge x 3\n", "p edge 3 1\ne 1 z\n"])
def test_a_non_integer_dimacs_token_is_a_parse_error(tmp_path, capsys, text):
    path = write(tmp_path, "bad.col", text)
    assert main(["color", path]) == 2
    assert "non-integer token in DIMACS line" in one_error_line(capsys)


@pytest.mark.parametrize("role", ["graph", "coloring", "trace"])
@pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
def test_an_unreadable_input_file_is_a_parse_error(tmp_path, capsys, role, kind):
    good = write(tmp_path, "g2.el", write_edgelist(gallery_g2(9)))
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"3 1\n0 1\xff\n")
    argv = {"graph": ["color", str(bad)], "coloring": ["verify", good, str(bad)],
            "trace": ["replay", good, str(bad)]}[role]
    assert main(argv) == 2
    one_error_line(capsys)


@pytest.mark.parametrize("line", ["0 x", "0", "0 1 2", "palette"])
def test_a_coloring_line_that_is_not_two_integers_is_a_parse_error(tmp_path, capsys, line):
    path = write(tmp_path, "c5.el", write_edgelist(cycle_graph(5)))
    colors = write(tmp_path, "c5.colors", f"palette 3\n{line}\n")
    assert main(["verify", path, colors]) == 2
    assert repr(line) in one_error_line(capsys)


@pytest.mark.parametrize("text, line", [
    ("palette 2\n0 2\n1 2\n0 1\n2 1\n", "0 1"),  # the second line would recolor 0 properly
    ("palette 1\n0 1\n1 2\n2 1\npalette 2\n", "palette 2"),
], ids=["vertex", "palette"])
def test_a_repeated_coloring_line_is_a_parse_error(tmp_path, capsys, text, line):
    path = write(tmp_path, "p3.el", "3 2\n0 1\n1 2\n")
    colors = write(tmp_path, "p3.colors", text)
    assert main(["verify", path, colors]) == 2
    assert repr(line) in one_error_line(capsys)
    assert main(["verify", path, write(tmp_path, "once.colors", "palette 2\n0 1\n1 2\n2 1\n")]) == 0
    assert capsys.readouterr().out.strip() == "valid"


@pytest.mark.parametrize("argv", [["gen", "G1", "--sizes", "1,x,1,1,1"],
                                  ["gen", "H", "--sizes", "1,1,1,1,1,1", "--a7", "2,y"]])
def test_a_non_integer_gen_list_is_a_usage_error(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "g.el")]) == 1
    one_error_line(capsys)


def test_a_non_integer_oracle_cap_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "c5.el", write_edgelist(cycle_graph(5)))
    with pytest.raises(SystemExit) as info:
        main(["oracle", path, "--max-oracle-n", "abc"])
    assert info.value.code == 1
    assert "argument --max-oracle-n: invalid int value: 'abc'" in capsys.readouterr().err


def test_tampered_trace_reports_inconsistency(tmp_path, capsys):
    path = write(tmp_path, "g2.el", write_edgelist(gallery_g2(9)))
    trace = str(tmp_path / "t.txt")
    assert main(["color", path, "--trace", trace]) == 0
    capsys.readouterr()
    lines = Path(trace).read_text().splitlines()
    # drop one extension step: the replayed coloring goes partial, which
    # the trace, not the engine, is to blame for
    broken = [ln for ln in lines if not ln.startswith("step low_degree")]
    tampered = str(tmp_path / "bad.txt")
    Path(tampered).write_text("\n".join(broken) + "\n")
    assert main(["replay", path, tampered]) == 2
    assert capsys.readouterr().err == "error: replayed trace leaves vertex 5 uncolored\n"


def benchmark_trace(tmp_path, capsys, workload: str, name: str) -> tuple[str, str]:
    """The graph6 file of a seed-7 benchmark input and its solver trace."""
    inp = next(inp for inp in benchmark_inputs(workload, 7) if inp.name == name)
    path = write(tmp_path, "g.g6", inp.g6)
    trace = str(tmp_path / "t.txt")
    assert main(["color", path, "--format", "graph6", "--trace", trace]) == 0
    capsys.readouterr()
    return path, Path(trace).read_text()


@pytest.mark.parametrize("workload, name, old, new, err", [
    # a delta_set line on the edge 0-1: Brooks recolors 1, and 2 stays bare
    ("delta", "gallery_g2(10)#0", "delta_set i=0,2 ", "delta_set i=0,1 ",
     "leaves vertex 2 uncolored"),
    # a delta_set color that Brooks uses too
    ("delta", "gallery_g2(10)#0", "i=0,2 color=9", "i=0,2 color=1",
     "gives both ends of edge 0-6 color 1"),
    # no line colors the Brooks component
    ("delta", "gallery_g2(10)#0", "color brooks vs=1,3,4,5,6,7,8,9,10 delta=8\n", "",
     "leaves vertex 1 uncolored"),
    # a copycat side larger than the other: the copy leaves 15 uncolored
    ("core9", "G3:3-4-1-4-2-1-1#0", "step copycat a=15 b=3\n", "step copycat a=15,3 b=3\n",
     "leaves vertex 15 uncolored"),
])
def test_replay_blames_a_trace_that_colors_badly(tmp_path, capsys, workload, name, old,
                                                 new, err):
    path, text = benchmark_trace(tmp_path, capsys, workload, name)
    assert text.count(old) == 1
    tampered = write(tmp_path, "bad.txt", text.replace(old, new))
    assert main(["replay", path, tampered, "--format", "graph6"]) == 2
    assert capsys.readouterr().err == f"error: replayed trace {err}\n"


@pytest.mark.parametrize("n", [36, 49])
def test_color_sniffs_graph6_starting_with_a_dimacs_letter(tmp_path, capsys, n):
    g = gallery_g2(9)
    while g.n + 10 <= n:
        g = disjoint_union(g, gallery_g2(9))
    g = disjoint_union(g, empty_graph(n - g.n))
    path = write(tmp_path, "g.g6", write_graph6(g))
    assert main(["color", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "palette 8"


def test_recursion_error_is_an_internal_failure(tmp_path, capsys, monkeypatch):
    def too_deep(g):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(cli, "solve", too_deep)
    path = write(tmp_path, "g2.el", write_edgelist(gallery_g2(9)))
    assert main(["color", path]) == 6
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "recursion limit" in err


def test_a_non_clique_bag_at_classify_exits_6(tmp_path, capsys, monkeypatch):
    # with the copycat rule disabled a non-clique bag reaches the strategy
    monkeypatch.setattr(solver, "find_copycat", lambda g: None)
    path = write(tmp_path, "core.el", write_edgelist(non_clique_core()))
    assert main(["color", path]) == 6
    assert "no copycat pair left" in capsys.readouterr().err


def test_500_spec_round_trip(tmp_path, capsys):
    # gen -> color -> verify -> replay, all through the command line surface
    from pentagem.instances import gen_target_delta
    from pentagem.errors import PentagemError
    from pentagem.structure import TEMPLATES

    graph_p = str(tmp_path / "g.el")
    trace_p = str(tmp_path / "g.trace")
    colors_p = tmp_path / "g.colors"
    done = 0
    seed = 0
    while done < 500:
        for mode in ("clique", "cograph"):
            for cid in sorted(TEMPLATES):
                try:
                    spec = gen_target_delta(cid, 9, seed=seed * 41 + 3, mode=mode)
                except PentagemError:
                    continue
                sizes = ",".join(str(spec.sizes[n]) for n in TEMPLATES[cid].nodes
                                 if n != TEMPLATES[cid].pendant)
                args = ["gen", cid, "--sizes", sizes, "--mode", spec.mode,
                        "--seed", str(spec.seed), "--out", graph_p]
                if spec.a7:
                    args += ["--a7", ",".join(map(str, spec.a7))]
                assert main(args) == 0
                assert main(["color", graph_p, "--trace", trace_p]) == 0
                colored = capsys.readouterr().out
                colors_p.write_text(colored)
                assert main(["verify", graph_p, str(colors_p)]) == 0
                capsys.readouterr()
                assert main(["replay", graph_p, trace_p]) == 0
                assert capsys.readouterr().out == colored
                done += 1
        seed += 1
    assert done >= 500


def test_color_peels_a_long_caterpillar_from_graph6(tmp_path, capsys):
    # n = 3,200: once one recursion frame per peel, past the recursion limit
    g = caterpillar(400)
    path = write(tmp_path, "cater.g6", write_graph6(g))
    assert main(["color", path, "--format", "graph6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "palette 8" and len(out) == 1 + g.n


@pytest.mark.parametrize("spine", [50, 200])
def test_color_reports_the_p5_of_a_degree_10_caterpillar(tmp_path, capsys, spine):
    # one component over the Bacsó-Tuza bound: exit 3, not a search
    g = caterpillar(spine, leaves=8)
    path = write(tmp_path, "cater.g6", write_graph6(g))
    assert main(["color", path, "--format", "graph6"]) == 3
    line = one_error_line(capsys)
    assert line.startswith("error: graph contains an induced P5 ")
    witness = tuple(map(int, line.split("witness: ")[1].split()))
    assert PatternWitness("P5", witness).check(g)


@pytest.mark.parametrize("delta", [3, 7, 9])
def test_replay_rejects_a_brooks_line_whose_delta_is_not_its_maximum_degree(
        tmp_path, capsys, delta):
    path = write(tmp_path, "g2.el", write_edgelist(gallery_g2(9)))
    trace = str(tmp_path / "t.txt")
    assert main(["color", path, "--trace", trace]) == 0
    capsys.readouterr()
    text = Path(trace).read_text()
    assert text.count("color brooks ") == 1 and " delta=8\n" in text
    tampered = write(tmp_path, "bad.txt", text.replace(" delta=8\n", f" delta={delta}\n"))
    assert main(["replay", path, tampered]) == 2
    assert f"delta={delta}" in one_error_line(capsys)


def test_replay_rejects_an_oracle_line_over_the_cap_before_searching(tmp_path, capsys):
    # the graph has triangles: searched, the line would end in exit 6, not 2
    g = random_graph(40, 0.5, 3)
    path = write(tmp_path, "g.el", write_edgelist(g))
    n, m, hist = fingerprint(g)
    vs = ",".join(map(str, range(40)))
    trace = write(tmp_path, "t.txt", dumps_trace(ReductionTrace([], 2, n, m, hist)).replace(
        "end\n", f"color oracle vs={vs} k=2\nend\n"))
    assert main(["replay", path, trace]) == 2
    assert "cap is 30" in one_error_line(capsys)


def test_replay_runs_an_oracle_line_with_a_huge_k_quickly(tmp_path, capsys):
    # the search's lists stop at n colors, so k=10**12 builds no huge mask
    g = cycle_graph(5)
    path = write(tmp_path, "g.el", write_edgelist(g))
    trace = write(tmp_path, "t.txt", dumps_trace(ReductionTrace(
        [TraceEvent("oracle", {"vs": tuple(range(5)), "k": 10 ** 12})], 3, *fingerprint(g))))
    start = time.perf_counter()
    assert main(["replay", path, trace]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "palette 3\n0 1\n1 2\n2 1\n3 2\n4 3\n"


@pytest.mark.parametrize("k", [0, 9, 1000000])
def test_replay_rejects_a_d1_extend_palette_outside_the_graph_order(tmp_path, capsys, k):
    # K4 joined to C4, a catalog graph of order 8; a palette of 10**6 colors
    # once built 8 lists of that size before the search began
    g = join(complete_graph(4), cycle_graph(4))
    path = write(tmp_path, "g.el", write_edgelist(g))
    n, m, hist = fingerprint(g)
    trace = write(tmp_path, "t.txt", dumps_trace(ReductionTrace([], 8, n, m, hist)).replace(
        "end\n", f"step d1_extend w=0,1,2,3,4,5,6,7 k={k}\nend\n"))
    start = time.perf_counter()
    assert main(["replay", path, trace]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"k={k}, outside 1..8" in one_error_line(capsys)


@pytest.mark.parametrize("line, err", [
    ("w=0,1,2,3,4,5,6,7 k=0", "error: d1_extend line says k=0, outside 1..8\n"),
    ("w=0,1,2,3,4,5,6,7 k=1000000", "error: d1_extend line says k=1000000, outside 1..8\n"),
    ("w=0,1,2,3,4,5,6,7,7 k=8",
     "error: d1_extend line repeats a vertex in w=0,1,2,3,4,5,6,7,7\n"),
    ("w=0,1,2,3,4,5,6,7,7 k=9", "error: d1_extend line says k=9, outside 1..8\n"),
])
def test_replay_d1_extend_palette_and_repeat_errors_are_pinned(tmp_path, capsys, line, err):
    # byte for byte, on K4 joined to C4; k is checked before the repeat
    g = join(complete_graph(4), cycle_graph(4))
    path = write(tmp_path, "g.el", write_edgelist(g))
    trace = write(tmp_path, "t.txt", dumps_trace(ReductionTrace([], 8, *fingerprint(g))).replace(
        "end\n", f"step d1_extend {line}\nend\n"))
    assert main(["replay", path, trace]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("line, reason", [
    ("w=0,1,2,3 k=8", "not one of the catalog shapes"),
    ("w=0,1,2,3,4,5,6,7 k=3", "below d(v)-1"),
    ("w=0,1,2,3,4,5,6,7,7 k=8", "repeats a vertex in w=0,1,2,3,4,5,6,7,7"),
])
def test_replay_rejects_a_d1_extend_line_that_does_not_fit_its_catalog_graph(
        tmp_path, capsys, line, reason):
    # K4 joined to C4, a catalog graph of order 8: its K4 alone is not one,
    # 3 colors are too few for its lists, and a repeated vertex once
    # collapsed and replayed with exit 0
    g = join(complete_graph(4), cycle_graph(4))
    path = write(tmp_path, "g.el", write_edgelist(g))
    n, m, hist = fingerprint(g)
    trace = write(tmp_path, "t.txt", dumps_trace(ReductionTrace([], 8, n, m, hist)).replace(
        "end\n", f"step d1_extend {line}\nend\n"))
    assert main(["replay", path, trace]) == 2
    assert reason in one_error_line(capsys)


@pytest.mark.parametrize("line, reason", [
    ("color oracle vs=0,1,99 k=2", "vertices 0,1,99 are not all in the graph of order 10"),
    ("color oracle vs=-1,0 k=2", "vertices -1,0 are not all in the graph of order 10"),
    ("color lemma1 vs=0,1,99 sets=0 order=1 k=8",
     "vertices 0,1,99 are not all in the graph of order 10"),
    ("color lemma1 vs=0,1 sets=5 order=1 k=8", "a reserved set leaves the vertex set"),
    ("color lemma1 vs=0,1 sets=-1 order=0,1 k=8", "a reserved set leaves the vertex set"),
    ("color lemma1 vs=0,1 sets=0 order=5 k=8", "order must enumerate exactly the remainder"),
    ("color lemma1 vs=0,1 sets=0,1 order=- k=8", "a reserved set is not independent"),
    ("color lemma1 vs=2,3,4,5,6,7,8,9 sets=- order=2,3,4,5,6,7,8,9 k=3",
     "remainder order exceeds back-degree 2 at vertex 5"),
    ("step d1_extend w=2,3,4,5,6,7,8,9 k=3", "list of vertex 2 below d(v)-1"),
    ("step d1_extend w=2,3,4,5,6,7,8,99 k=8", "not all in the graph of order 10"),
    ("step d1_extend w=0,1,2,3,4,5,6,7 k=8", "not one of the catalog shapes"),
])
def test_replay_rejects_a_malformed_coloring_line_with_exit_2(tmp_path, capsys, line, reason):
    # an edge beside K4 joined to C4 (a catalog graph of order 8, on 2..9);
    # the lines name vertices outside the graph or outside their own vs,
    # sets that are not independent, orders or lists too short
    g = disjoint_union(path_graph(2), join(complete_graph(4), cycle_graph(4)))
    path = write(tmp_path, "g.el", write_edgelist(g))
    trace = write(tmp_path, "t.txt", dumps_trace(ReductionTrace([], 8, *fingerprint(g))).replace(
        "end\n", f"{line}\nend\n"))
    assert main(["replay", path, trace]) == 2
    assert reason in one_error_line(capsys)


@pytest.mark.parametrize("lines", [
    ["step delta_set i=0 color=-1", "step low_degree v=1 k=2"],
    ["step delta_set i=0 color=1000000000000", "step low_degree v=1 k=2"],
    # the first-fit at vertex 1 never turns either number into a mask
    ["step delta_set i=0 color=1000000000000", "step low_degree v=1 k=10000000000000"],
])
def test_replay_rejects_a_color_outside_the_palette(tmp_path, capsys, lines):
    # the path 0-1: once replayed to a coloring that failed verification, exit 6
    g = path_graph(2)
    path = write(tmp_path, "g.el", write_edgelist(g))
    n, m, hist = fingerprint(g)
    trace = write(tmp_path, "t.txt", dumps_trace(ReductionTrace([], 2, n, m, hist)).replace(
        "end\n", "\n".join(lines) + "\nend\n"))
    start = time.perf_counter()
    assert main(["replay", path, trace]) == 2
    assert time.perf_counter() - start < 1.0
    assert one_error_line(capsys) == "error: trace gives a color outside its palette 1..2\n"


@pytest.mark.parametrize("graph_line", [
    "graph n=-1 m=2 degrees=1:2,2:1",
    "graph n=3 m=-4 degrees=1:2,2:1",
    "graph n=3 m=2 degrees=3:53:5",
    "graph n=3 m=2 degrees=-1",
    "graph n=3 m=2 degrees=1:2,1:2",
    "graph n=\u0663 m=2 degrees=1:2,2:1",
    "graph n=3 m=+2 degrees=1:2,2:1",
    "graph n=3 m=2 degrees=1:2,2:1_0",
])
def test_replay_rejects_a_malformed_graph_line_with_exit_2(tmp_path, capsys, graph_line):
    # a negative count, a degree token that is not d:c, or a degree given
    # twice once read as a fingerprint that merely differed, exit 1
    path = write(tmp_path, "p3.el", write_edgelist(path_graph(3)))
    trace = write(tmp_path, "t.txt", f"pentagem-trace 1\n{graph_line}\npalette 2\nend\n")
    assert main(["replay", path, trace]) == 2
    assert one_error_line(capsys) == f"error: malformed trace line: {graph_line!r}\n"


@pytest.mark.parametrize("line", [
    "color greedy vs=1_0,+3 k=0_9",
    "color greedy vs=\u0663,4 k=8",
    "color greedy vs=0,1 k=+8",
    "color brooks vs=0,1,2 delta=\u0663",
    "step low_degree v=+1 k=8",
    "step low_degree v=1 k=\u0668",
    "step delta_set i=0 color=1_0",
    "color lemma1 vs=0,1 sets=+0 order=1 k=8",
    "color lemma1 vs=0,1 sets=0 order=1 k=8 fallback=2",
    "color lemma1 vs=0,1 sets=0 order=1 k=8 fallback=\u0661",
    "step d1_extend w=\u0662,3 k=8",
    "palette +8",
])
def test_replay_rejects_an_integer_written_other_than_in_ascii_digits_with_exit_2(
        tmp_path, capsys, line):
    # int() alone once read "+3", "1_0" and Arabic-Indic digits, and any
    # integer as a true fallback flag
    g = cycle_graph(10)
    path = write(tmp_path, "c10.el", write_edgelist(g))
    text = dumps_trace(ReductionTrace([], 8, *fingerprint(g)))
    text = (text.replace("palette 8\n", f"{line}\n") if line.startswith("palette")
            else text.replace("end\n", f"{line}\nend\n"))
    assert main(["replay", path, write(tmp_path, "t.txt", text)]) == 2
    assert one_error_line(capsys) == f"error: malformed trace line: {line!r}\n"


@pytest.mark.parametrize("graph_line", ["graph n=4 m=2 degrees=1:2,2:1",
                                        "graph n=3 m=2 degrees=2:1,1:2",
                                        "graph n=3 m=2 degrees=1:2,2:1,5:0"])
def test_replay_exits_1_on_a_well_formed_graph_line_that_does_not_match(
        tmp_path, capsys, graph_line):
    path = write(tmp_path, "p3.el", write_edgelist(path_graph(3)))
    trace = write(tmp_path, "t.txt", f"pentagem-trace 1\n{graph_line}\npalette 2\nend\n")
    assert main(["replay", path, trace]) == 1
    assert one_error_line(capsys) == "error: trace fingerprint does not match the graph\n"


# ten, in four spellings that int() reads and no reader of pentagem's takes
TEN = {"plus": "+10", "underscore": "1_0", "arabic-indic": "\u0661\u0660",
       "fullwidth": "\uff11\uff10"}

# each reader of an integer, as a command line around one spelled ten, and
# its exit code: a file's bad integer is a parse error, a flag's a usage error
READERS = {
    "edgelist": (lambda w, x: ["detect", w("g.el", f"11 1\n0 {x}\n"), "--format", "edgelist"], 2),
    "sniffed-edgelist": (lambda w, x: ["detect", w("g.el", f"{x} 0\n")], 2),
    "dimacs": (lambda w, x: ["detect", w("g.col", f"p edge 11 1\ne 1 {x}\n")], 2),
    "coloring": (lambda w, x: ["verify", w("p3.el", "3 2\n0 1\n1 2\n"),
                               w("p3.colors", f"palette 10\n0 1\n1 {x}\n2 1\n")], 2),
    "--sizes": (lambda w, x: ["gen", "G2", "--sizes", f"1,1,{x},1,1,1"], 1),
    "--a7": (lambda w, x: ["gen", "H", "--sizes", "1,1,1,1,1,2", "--a7", x], 1),
    "--t": (lambda w, x: ["gen", "gallery-g2", "--t", x], 1),
    "--seed": (lambda w, x: ["gen", "G1", "--sizes", "3,2,2,1,1", "--mode", "cograph",
                             "--seed", x], 1),
    "--max-oracle-n": (lambda w, x: ["oracle", w("p3.el", "3 2\n0 1\n1 2\n"),
                                     "--max-oracle-n", x], 1),
}


@pytest.mark.parametrize("spelling", TEN.values(), ids=TEN)
@pytest.mark.parametrize("reader", READERS)
def test_every_reader_takes_integers_only_in_ascii_digits(tmp_path, capsys, reader, spelling):
    # int() alone read each of these as 10, and every command below then ran
    argv, code = READERS[reader]
    argv = argv(lambda name, text: write(tmp_path, name, text), spelling)
    if argv[0] == "gen":
        argv += ["--out", str(tmp_path / "out.el")]
    try:
        assert main(argv) == code
    except SystemExit as exc:  # argparse's own usage error
        assert exc.code == code
    assert "Traceback" not in capsys.readouterr().err


P4_TRACE = """pentagem-trace 1
graph n=4 m=3 degrees=1:2,2:2
palette 2
color greedy vs=0,1,2,3 k=2
end
"""


@pytest.mark.parametrize("old, new", [
    ("graph n=4 m=3 degrees=1:2,2:2", "banana n=4 m=3 degrees=1:2,2:2"),
    ("palette 2", "banana 2"),
    ("palette 2", "palette 2 7"),
    ("pentagem-trace 1", "pentagem-trace 1 extra"),
])
def test_replay_checks_the_verb_and_tokens_of_each_header_line(tmp_path, capsys, old, new):
    # each of these once replayed as the header it replaced, with exit 0
    path = write(tmp_path, "p4.el", write_edgelist(path_graph(4)))
    assert main(["replay", path, write(tmp_path, "ok.txt", P4_TRACE)]) == 0
    capsys.readouterr()
    assert main(["replay", path, write(tmp_path, "t.txt", P4_TRACE.replace(old, new))]) == 2
    assert one_error_line(capsys) == f"error: malformed trace line: {new!r}\n"


def test_replay_rejects_a_lift_line(tmp_path, capsys):
    # no code writes lift lines, and replay no longer reads them
    path = write(tmp_path, "p3.el", write_edgelist(path_graph(3)))
    text = P4_TRACE.replace("n=4 m=3 degrees=1:2,2:2", "n=3 m=2 degrees=1:2,2:1").replace(
        "vs=0,1,2,3", "vs=0,1,2").replace("end\n", "step lift units=->-\nend\n")
    assert main(["replay", path, write(tmp_path, "t.txt", text)]) == 2
    assert one_error_line(capsys) == "error: unknown trace event: 'step lift units=->-'\n"


@pytest.mark.parametrize("flag", ["--trace", "--out", "--bags-out"])
def test_an_output_path_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, flag):
    # the path is a directory
    target = str(tmp_path)
    argv = {"--trace": ["color", write(tmp_path, "g2.el", write_edgelist(gallery_g2(9))),
                        "--trace", target],
            "--out": ["gen", "gallery-g2", "--out", target],
            "--bags-out": ["gen", "G2", "--sizes", "2,3,1,1,3,2", "--bags-out", target]}[flag]
    assert main(argv) == 1
    assert one_error_line(capsys).startswith(f"error: cannot write {target}: ")
