"""The functions in ``src/pentagem`` that call themselves by name.

Every search that can run deep keeps its own stack, so a self-call is a
recursion this list has to admit.  A call counts when a function calls its
own name and does not rebind that name itself (``Step.dump`` calls the
``dump`` it unpacks from its field table, which is not a recursion).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pentagem

# a random cograph's cotree, at most as deep as it has vertices, and one
# frame per maximal module of the matcher's bag search
ADMITTED = {"instances._random_cograph_edges", "structure.match_expansion.<locals>.search"}


def _bound_names(fn: ast.AST) -> set[str]:
    names = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
    return names


def _self_calls(tree: ast.Module, module: str) -> set[str]:
    found = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                calls = any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                            and n.func.id == child.name for n in ast.walk(child))
                if calls and child.name not in _bound_names(child):
                    found.add(name)
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, module + ".")
    return found


def test_only_the_admitted_functions_call_themselves():
    src = Path(pentagem.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        found |= _self_calls(ast.parse(path.read_text()), path.stem)
    assert found == ADMITTED
