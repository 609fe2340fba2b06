"""The functions in ``src/pentagem`` that call ``induced_subgraph``.

Every trace step colors the graph it is handed through the mask of its
vertices, and degree reduction and the base case work on host masks too.
An induced copy is left only where a caller is handed a ``Graph`` and its
ids: the copycat and catalog rules and the core of ``_color8``, and H's
recursion callback.  A call
counts for the innermost named function around it (a lambda's call counts
for the function that holds the lambda).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pentagem

ADMITTED = {"solver._color8", "strategies._color_without"}


def _callers(tree: ast.Module, module: str) -> set[str]:
    found = set()

    def visit(node: ast.AST, name: str | None, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = prefix + child.name
                visit(child, inner, inner + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, name, prefix + child.name + ".")
            else:
                func = child.func if isinstance(child, ast.Call) else None
                if (isinstance(func, ast.Name) and func.id == "induced_subgraph"
                        or isinstance(func, ast.Attribute) and func.attr == "induced_subgraph"):
                    found.add(name or module)
                visit(child, name, prefix)

    visit(tree, None, module + ".")
    return found


def test_only_the_admitted_functions_build_an_induced_copy():
    src = Path(pentagem.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        found |= _callers(ast.parse(path.read_text()), path.stem)
    assert found == ADMITTED
