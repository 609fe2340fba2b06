import importlib.util
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagem.errors import GraphFormatError
from pentagem.graph import build_graph, complete_graph, cycle_graph, empty_graph, path_graph
from pentagem.graphio import (parse_dimacs, parse_edgelist, parse_graph,
                              parse_graph6, sniff_format, write_dimacs,
                              write_edgelist, write_graph6)

from helpers import caterpillar, random_graph, reference_parse_graph6


def test_dimacs_round_trip():
    g = cycle_graph(5)
    assert parse_dimacs(write_dimacs(g)) == g


def test_dimacs_parses_comments_and_one_indexing():
    text = "c a comment\np edge 3 2\ne 1 2\ne 2 3\n"
    assert parse_dimacs(text) == path_graph(3)


def test_dimacs_rejects_garbage():
    with pytest.raises(GraphFormatError):
        parse_dimacs("p edge 3\n")
    with pytest.raises(GraphFormatError):
        parse_dimacs("e 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_dimacs("p edge 2 1\ne 1 5\n")


def test_dimacs_rejects_an_order_above_the_graph6_limit():
    # once a MemoryError from allocating the rows; the limit is 2^18 - 1
    with pytest.raises(GraphFormatError, match="262144 vertices is above the supported 262143"):
        parse_dimacs("p edge 262144 0\n")
    with pytest.raises(GraphFormatError, match="above the supported"):
        parse_dimacs("p edge 100000000000000 0\n")


def test_edgelist_rejects_an_order_above_the_graph6_limit():
    with pytest.raises(GraphFormatError, match="262144 vertices is above the supported 262143"):
        parse_edgelist("262144 0\n")
    with pytest.raises(GraphFormatError, match="above the supported"):
        parse_edgelist("100000000000000 0\n")


def test_edgelist_round_trip():
    g = complete_graph(4)
    assert parse_edgelist(write_edgelist(g)) == g


def test_edgelist_rejects_wrong_count():
    with pytest.raises(GraphFormatError):
        parse_edgelist("3 2\n0 1\n")


def test_known_graph6_strings():
    # standard encodings: triangle and the 3-path
    assert write_graph6(complete_graph(3)).strip() == "Bw"
    assert write_graph6(path_graph(3)).strip() == "Bg"
    assert parse_graph6("Bw") == complete_graph(3)
    assert parse_graph6("Bg") == path_graph(3)


def test_graph6_header_variant():
    assert parse_graph6(">>graph6<<Bw") == complete_graph(3)


def test_sniffing():
    assert sniff_format("p edge 2 1\ne 1 2\n") == "dimacs"
    assert sniff_format("c\np edge 2 1\ne 1 2\n") == "dimacs"
    assert sniff_format("2 1\n0 1\n") == "edgelist"
    assert sniff_format("Bw\n") == "graph6"


@pytest.mark.parametrize("n", [36, 49])
def test_sniffing_graph6_whose_first_byte_is_a_dimacs_letter(n):
    # 63 + 36 is "c" and 63 + 49 is "p", the DIMACS comment and problem letters
    text = write_graph6(empty_graph(n))
    assert text[0] in "cp" and sniff_format(text) == "graph6"
    assert parse_graph(text) == empty_graph(n)


@given(st.integers(0, 500), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_all_formats_round_trip(seed, n):
    g = random_graph(n, 0.4, seed)
    assert parse_graph(write_dimacs(g), "dimacs") == g
    assert parse_graph(write_edgelist(g), "edgelist") == g
    assert parse_graph(write_graph6(g), "graph6") == g


def test_graph6_multibyte_order():
    g = random_graph(70, 0.1, 12)
    assert parse_graph6(write_graph6(g)) == g


@given(st.text(max_size=60))
@settings(max_examples=120, deadline=None)
def test_parsers_never_crash_on_garbage(blob):
    from pentagem.errors import GraphFormatError
    for fmt in (None, "dimacs", "edgelist", "graph6"):
        try:
            parse_graph(blob, fmt)
        except GraphFormatError:
            pass


@pytest.mark.parametrize("n", range(71))
def test_graph6_round_trips_across_the_header_boundary(n):
    # orders up to 62 take a one-character header, 63 and up four characters
    g = random_graph(n, 0.3, 1000 + n)
    text = write_graph6(g)
    assert len(text.strip()) - (n * (n - 1) // 2 + 5) // 6 == (1 if n <= 62 else 4)
    assert parse_graph6(text) == g


def test_graph6_round_trips_a_large_sparse_graph():
    g = caterpillar(200)
    assert g.n == 1600
    assert parse_graph6(write_graph6(g)) == g


@pytest.mark.parametrize("text, graph", [
    ("A~", path_graph(2)),           # one pair, five padding bits set
    ("B~", complete_graph(3)),        # three pairs, three padding bits set
    ("Dhc", cycle_graph(5)),
    ("Dhf", cycle_graph(5)),          # two padding bits set
])
def test_graph6_ignores_padding_bits(text, graph):
    assert parse_graph6(text) == graph


@pytest.mark.parametrize("text, message", [
    ("", "empty graph6 string"),
    (">>graph6<<", "empty graph6 string"),
    ("B\x7f", "graph6 characters out of range"),
    ("B w", "graph6 characters out of range"),
    ("Bw\nBw", "graph6 characters out of range"),
    ("~~??????", "graph6 orders above 2^18 are not supported"),
    ("~??", "graph6 orders above 2^18 are not supported"),
    ("Bww", "graph6 body length 2, expected 1"),
    ("D", "graph6 body length 0, expected 2"),
    ("~??~" + "?" * 10, "graph6 body length 10, expected 326"),
])
def test_graph6_errors_keep_their_messages(text, message):
    with pytest.raises(GraphFormatError) as info:
        parse_graph6(text)
    assert str(info.value) == message


def test_graph6_range_check_agrees_with_the_regex_scan():
    # each code point up to U+00FF, an astral one and a lone surrogate as the
    # middle character of a 6-vertex body: rejected exactly when the old
    # scan finds it, with its message, and never by a UnicodeEncodeError
    scan = re.compile(r"[^?-~]")
    rejected = 0
    for ch in [chr(c) for c in range(256)] + ["\U0001F600", "\ud800"]:
        text = "E?" + ch + "?"
        if scan.search(text):
            with pytest.raises(GraphFormatError) as info:
                parse_graph6(text)
            assert str(info.value) == "graph6 characters out of range", repr(ch)
            rejected += 1
        else:
            assert parse_graph6(text).n == 6
    assert rejected == 256 - 64 + 2


def _graph6_by_every_bit(n: int, body: str) -> set[tuple[int, int]]:
    """The edges of a graph6 body, read one bit at a time in column order."""
    flat = [(ord(ch) - 63) >> shift & 1 for ch in body for shift in range(5, -1, -1)]
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return {p for p, bit in zip(pairs, flat) if bit}


@given(st.integers(0, 40), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_graph6_agrees_with_a_bitwise_reader(n, rng):
    # any body of the right length, padding bits included
    body = "".join(chr(63 + rng.choice((0, 0, rng.randrange(64))))
                   for _ in range((n * (n - 1) // 2 + 5) // 6))
    g = parse_graph6(chr(63 + n) + body)
    assert set(g.edges()) == _graph6_by_every_bit(n, body)


def _graph6_bit_by_bit(g) -> str:
    """graph6 text built from a string of the n(n-1)/2 pair bits, column by
    column, padded with zeros and cut six bits a character."""
    n = g.n
    head = [n] if n <= 62 else [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    flat = "".join(format(g.adj[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, n))
    flat += "0" * (-len(flat) % 6)
    body = [int(flat[i:i + 6], 2) for i in range(0, len(flat), 6)]
    return "".join(chr(63 + d) for d in head + body) + "\n"


@pytest.mark.parametrize("n", range(71))
def test_graph6_writer_matches_a_bit_by_bit_encoder(n):
    g = random_graph(n, 0.3, 3000 + n)
    assert write_graph6(g) == _graph6_bit_by_bit(g)


@pytest.mark.parametrize("spine", [200, 400])
def test_graph6_writer_matches_a_bit_by_bit_encoder_on_caterpillars(spine):
    g = caterpillar(spine)  # n = 1,600 and 3,200
    assert write_graph6(g) == _graph6_bit_by_bit(g)


@given(st.integers(0, 130), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_graph6_agrees_with_the_edge_by_edge_reader(n, seed):
    # any density, padding bits set at random, the optional prefix, and now
    # and then a body one character short or long or a character out of range
    rng = random.Random(seed)
    density = rng.random()
    body = [chr(63 + sum(32 >> b for b in range(6) if rng.random() < density))
            for _ in range((n * (n - 1) // 2 + 5) // 6)]
    fault = rng.choice((None,) * 6 + ("short", "long", "range"))
    if fault == "short" and body:
        body.pop(rng.randrange(len(body)))
    elif fault == "long":
        body.insert(rng.randrange(len(body) + 1), "~")
    elif fault == "range" and body:
        body[rng.randrange(len(body))] = rng.choice((" ", "\x7f", "\xe9", "0"))
    head = chr(63 + n) if n <= 62 else "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    text = rng.choice(("", ">>graph6<<")) + head + "".join(body) + rng.choice(("", "\n"))
    try:
        expected = reference_parse_graph6(text)
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError) as info:
            parse_graph6(text)
        assert str(info.value) == str(exc)
    else:
        assert parse_graph6(text) == expected


def test_graph6_reads_every_benchmark_input_as_its_edge_list(monkeypatch):
    # the four workloads at seed 7, encoded by the benchmark's own writer
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    for name in ("sweep9", "core9", "delta", "scale"):
        for inp in getattr(workloads, name)(7):
            assert parse_graph6(inp.g6) == build_graph(inp.n, inp.edges), inp.name
