"""The benchmark's own coloring checker.

It reads only the edge list a workload generator produced, never pentagem's
parser, ``Graph`` or ``verify_coloring``, so a fault in those cannot hide a
wrong answer.
"""

from __future__ import annotations


def max_degree(n: int, edges) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0)


def coloring_errors(n: int, edges, colors: dict[int, int]) -> list[str]:
    """Why ``colors`` is not a proper (Delta-1)-coloring; empty when it is.

    Checks that exactly the vertices 0..n-1 are colored, that every color
    lies in 1..Delta-1 with Delta computed here from the edges, and that no
    edge joins two vertices of one color.
    """
    errors = []
    if set(colors) != set(range(n)):
        errors.append(f"colored {len(colors)} vertices, expected exactly 0..{n - 1}")
    top = max_degree(n, edges) - 1
    wide = sorted({c for c in colors.values() if not 1 <= c <= top})
    if wide:
        errors.append(f"colors {wide[:5]} outside 1..{top}")
    clash = [(u, v) for u, v in edges if u in colors and colors.get(u) == colors.get(v)]
    if clash:
        errors.append(f"{len(clash)} monochromatic edges, first {clash[0]}")
    return errors
