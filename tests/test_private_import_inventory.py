"""The private names that modules of ``src/pentagem`` import from each other.

Each layer the engine runs is one public function, under the name the
benchmark times, so no module reaches into another for a worker.  What is
left is shared machinery with no public form: the clique search, the
twin quotient the freeness and bag walks share, and the Brooks coloring
the ``brooks`` trace step runs after it has checked the line's delta
against the degrees it counted.  An import counts at module level and
inside functions alike, as (importing module, source module, name); a
dunder such as ``__version__`` is not private.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pentagem

ADMITTED = {
    ("reductions", "patterns", "_maximal_cliques"),
    ("structure", "patterns", "_twin_quotient"),
    ("trace", "reductions", "_brooks_by_degree"),
    ("trace", "reductions", "_delta_and_low"),
}


def _private_imports(tree: ast.Module, module: str) -> set[tuple[str, str, str]]:
    return {(module, node.module or "", alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")}


def test_only_the_admitted_private_names_cross_modules():
    src = Path(pentagem.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        found |= _private_imports(ast.parse(path.read_text()), path.stem)
    assert found == ADMITTED

