"""One clique search in ``src/pentagem``, and what it answers.

``patterns._maximal_cliques`` is the only clique search: the gate's
``has_clique``, ``clique_number`` (and through the complement
``maximum_independent_set``) and each degree-reduction level all read it, and it is the only caller of the coloring cut
``patterns._colors_at_least``.  A call counts for the innermost named
function around it.  The public answers are checked against
``reference_lex_cliques``, the search they came from before, kept
verbatim in ``helpers``.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

import pentagem
from pentagem import patterns, reductions
from pentagem.errors import CliqueBoundError
from pentagem.graph import complete_graph
from pentagem.graphio import parse_graph
from pentagem.patterns import clique_number, has_clique
from pentagem.solver import solve

from helpers import (c5_blowup, core9, delta_family, least_clique, random_graph,
                     reference_lex_cliques)


def _calls_and_defs(name: str) -> tuple[set[str], set[str]]:
    """The functions of ``src/pentagem`` that call ``name``, and the
    modules that define a function of that name."""
    callers, defined = set(), set()

    def visit(node: ast.AST, owner: str | None, prefix: str, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name == name:
                    defined.add(module)
                inner = prefix + child.name
                visit(child, inner, inner + ".<locals>.", module)
            elif isinstance(child, ast.ClassDef):
                visit(child, owner, prefix + child.name + ".", module)
            else:
                func = child.func if isinstance(child, ast.Call) else None
                if (isinstance(func, ast.Name) and func.id == name
                        or isinstance(func, ast.Attribute) and func.attr == name):
                    callers.add(owner or module)
                visit(child, owner, prefix, module)

    for path in sorted(Path(pentagem.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.stem + ".", path.stem)
    return callers, defined


def test_the_coloring_cut_has_one_caller_the_clique_search():
    assert _calls_and_defs("_colors_at_least") == ({"patterns._maximal_cliques"},
                                                   {"patterns"})


def test_one_module_defines_the_clique_search():
    assert _calls_and_defs("_maximal_cliques")[1] == {"patterns"}
    assert _calls_and_defs("_lex_cliques") == (set(), set())
    assert reductions._maximal_cliques is patterns._maximal_cliques


def _assert_lex_answers(g, mask, sizes) -> None:
    """``clique_number``, ``least_clique`` and ``has_clique`` on ``mask``
    answer as the lex-least clique search did, at each of ``sizes``."""
    best = ()
    for best in reference_lex_cliques(g, mask, 0):
        pass
    assert clique_number(g, mask) == (len(best), best)
    for size in sizes:
        want = next(reference_lex_cliques(g, mask, size), None)
        assert least_clique(g, mask, size) == want, size
        assert has_clique(g, mask, size) == (want is not None), size


def test_the_answers_match_the_lex_search_on_random_graphs():
    rng = random.Random(26)
    for _ in range(400):
        n = rng.randint(0, 18)
        g = random_graph(n, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9, 0.95)), rng.randrange(10_000))
        for mask in (g.full_mask(), rng.getrandbits(n)):
            _assert_lex_answers(g, mask, range(n + 2))


def test_the_answers_match_the_lex_search_on_blowups():
    rng = random.Random(5)
    for a in range(1, 13):
        g = c5_blowup(a)
        for mask in (g.full_mask(), rng.getrandbits(g.n)):
            _assert_lex_answers(g, mask, range(2 * a + 2))


def test_the_answers_match_the_lex_search_on_the_criterion_3_family():
    for g in delta_family():
        delta = g.max_degree()
        _assert_lex_answers(g, g.full_mask(), range(delta - 3, delta + 2))


def test_the_answers_match_the_lex_search_on_the_core9_inputs():
    for inp in core9(7):
        g = parse_graph(inp.g6, "graph6")
        _assert_lex_answers(g, g.full_mask(), range(6, 11))


def test_a_large_complete_graph_is_rejected_in_a_few_search_nodes(monkeypatch):
    # the lex search grew K1100 one vertex per level, coloring the rest into
    # singleton classes at each of 1,099 levels; each node of the search
    # tests the cut at most once
    real, cuts = patterns._colors_at_least, []
    monkeypatch.setattr(patterns, "_colors_at_least",
                        lambda *args: cuts.append(args[1:]) or real(*args))
    g = complete_graph(1100)
    with pytest.raises(CliqueBoundError) as err:
        solve(g)
    assert str(err.value) == "clique number 1100 exceeds 1098"
    assert err.value.witness == tuple(range(1100))
    assert len(cuts) <= 4, len(cuts)
