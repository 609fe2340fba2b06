"""Seeded inputs for the four benchmark workloads.

Every input is kept as the edge list its generator produced, plus graph6
text that this module encodes itself from that list.  The solve operation
parses the text; the checker (``check.py``) reads only the edge list, so
neither side of a check depends on pentagem's parser or ``Graph``.

pentagem is imported inside each workload function, not at module level,
so that a caller that re-imports the package (to time set-up) generates
inputs with the fresh modules.
"""

from __future__ import annotations

import base64
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

ALL_CLASSES = ("G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8", "G9", "G10", "H")
SWEEP9_SIZE = 506
DELTA_FAMILY_SIZE = 50          # the criterion-3 recipe stops at the round reaching 50
DELTA_UNION_COPIES = (2, 3, 4, 5, 6)
CATERPILLAR_SPINES = (50, 100, 200)  # n = 400, 800, 1600
CATERPILLAR_LEAVES = 7
# A graph's solve time depends on its vertex order, and core9 and the delta
# family hold few graphs, so one seeded order of each let the seed move the
# figures: over five seeds core9's graphs_per_s spread 6.5 % and its
# solve_ms_p90 12 %; with four orders of each graph, 2.7 % and 4.5 %.
ORDERS = 4

_G6_ALPHABET = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)))


@dataclass(frozen=True)
class Input:
    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    g6: str


def graph6(n: int, edges) -> str:
    """graph6 text of the graph, encoded from its edge list.

    graph6 packs the upper triangle column by column, six bits a character,
    most significant bit first; that is base64's bit grouping, so the body
    is base64 of the packed bits with the alphabet shifted to chr(63..126).
    """
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    nbits = n * (n - 1) // 2
    buf = bytearray((nbits + 23) // 24 * 3)
    for u, v in edges:
        if u > v:
            u, v = v, u
        i = v * (v - 1) // 2 + u
        buf[i >> 3] |= 0x80 >> (i & 7)
    body = base64.b64encode(bytes(buf)).translate(_G6_ALPHABET)
    return head + body[:(nbits + 5) // 6].decode("ascii") + "\n"


def _make(name: str, n: int, edges) -> Input:
    edges = tuple(edges)
    return Input(name, n, edges, graph6(n, edges))


def _relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def _union(parts) -> tuple[int, list[tuple[int, int]]]:
    """Disjoint union of (n, edges) parts, each shifted past the previous."""
    n, edges = 0, []
    for pn, pedges in parts:
        edges.extend((u + n, v + n) for u, v in pedges)
        n += pn
    return n, edges


def _sweep9_members(count: int):
    """The criterion-2 recipe: Delta = 9 members of all 11 classes in clique
    and cograph bag modes, rounds of generator seeds until ``count``."""
    from pentagem.errors import PentagemError
    from pentagem.instances import gen_class_instance, gen_target_delta

    out = []
    r = 0
    while True:
        for mode in ("clique", "cograph"):
            for cid in ALL_CLASSES:
                try:
                    spec = gen_target_delta(cid, 9, seed=r * 37 + 11, mode=mode)
                except PentagemError:
                    continue
                g, _ = gen_class_instance(spec)
                out.append((f"{cid}-{mode}-r{r}", g.n, list(g.edges())))
                if len(out) == count:
                    return out
        r += 1


def sweep9(seed: int) -> list[Input]:
    """The criterion-2 suite; the seed draws each graph's vertex order."""
    return _in_orders(_sweep9_members(SWEEP9_SIZE), random.Random(seed), orders=1)


def _core9_hosts():
    """Every Delta = 9 clique expansion of the 11 templates with minimum
    degree at least 8 and clique number at most 8, found exhaustively.

    A vertex's degree is its closed bag-neighborhood sum minus one, so each
    body node's closed sum lies in [9, 10]; the pendant components of H add
    to the anchor's degree and are enumerated as multisets afterwards.
    """
    from pentagem.instances import GenSpec, gen_class_instance
    from pentagem.patterns import clique_number
    from pentagem.structure import TEMPLATES

    for tid in ALL_CLASSES:
        t = TEMPLATES[tid]
        pos = {x: i for i, x in enumerate(t.nodes)}
        body = [x for x in t.nodes if x != t.pendant]
        closed = [[j for j, y in enumerate(body)
                   if y == x or t.graph.has_edge(pos[x], pos[y])] for x in body]

        def vectors(sizes):
            k = len(sizes)
            if k == len(body):
                yield list(sizes)
                return
            for s in range(1, 9):
                sizes.append(s)
                ok = True
                for owner, cn in enumerate(closed):
                    total = sum(sizes[j] for j in cn if j <= k)
                    done = max(cn) <= k
                    if total > 10 or (done and body[owner] != t.anchor and total < 9):
                        ok = False
                        break
                if ok:
                    yield from vectors(sizes)
                sizes.pop()

        for vec in vectors([]):
            sizes = dict(zip(body, vec))
            comps_options = [()]
            if t.pendant is not None:
                q = sizes[t.anchor]
                base = sum(vec[j] for j in closed[body.index(t.anchor)]) - 1
                allowed = range(max(1, 9 - q), 11 - q)
                comps_options = [c for m in range(1, 10)
                                 for c in combinations_with_replacement(allowed, m)
                                 if 8 <= base + sum(c) <= 9]
            for comps in comps_options:
                g, _ = gen_class_instance(GenSpec(tid, sizes, comps, "clique", 0))
                if (g.max_degree() == 9 and g.min_degree() >= 8
                        and clique_number(g)[0] <= 8):
                    label = "-".join(str(s) for s in vec)
                    if comps:
                        label += "+" + "-".join(str(c) for c in comps)
                    yield f"{tid}:{label}", g.n, list(g.edges())


def _in_orders(graphs, rng: random.Random, orders: int = ORDERS) -> list[Input]:
    """Each graph in ``orders`` vertex orders drawn from ``rng``."""
    return [_make(f"{name}#{k}", n, _relabel(n, edges, rng))
            for name, n, edges in graphs for k in range(orders)]


def core9(seed: int) -> list[Input]:
    """The exhaustive degree-9 hosts, each in ``ORDERS`` seeded vertex orders."""
    return _in_orders(list(_core9_hosts()), random.Random(seed))


def delta(seed: int) -> list[Input]:
    """The criterion-3 family (Delta 10..12), then unions of gallery_g2(10).

    Each graph of the family comes in ``ORDERS`` seeded vertex orders.  The
    unions keep a fixed order: ``hitting_mis`` on them costs up to a third
    more or less under another order, and they take most of the workload's
    time, so a seeded order would let the seed, not the code, set the
    figures.
    """
    from pentagem.errors import PentagemError
    from pentagem.instances import gallery_g2, gen_class_instance, gen_target_delta

    family = []
    for t in (10, 11, 12):
        g = gallery_g2(t)
        family.append((f"gallery_g2({t})", g.n, list(g.edges())))
    r = 0
    while len(family) < DELTA_FAMILY_SIZE:
        for cid in ("G1", "G2", "G5", "G6", "G9", "H"):
            for target in (10, 11, 12):
                try:
                    spec = gen_target_delta(cid, target, seed=r * 53 + 2)
                except PentagemError:
                    continue
                g, _ = gen_class_instance(spec)
                family.append((f"{cid}-d{target}-r{r}", g.n, list(g.edges())))
        r += 1
    out = _in_orders(family, random.Random(seed))
    g2 = gallery_g2(10)
    piece = (g2.n, list(g2.edges()))
    for copies in DELTA_UNION_COPIES:
        n, edges = _union([piece] * copies)
        out.append(_make(f"gallery_g2(10)x{copies}", n, edges))
    return out


def caterpillar(spine: int) -> tuple[int, list[tuple[int, int]]]:
    """A path of ``spine`` vertices (ids 0..spine-1), each with 7 leaves."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        for _ in range(CATERPILLAR_LEAVES):
            edges.append((i, nxt))
            nxt += 1
    return nxt, edges


def scale(seed: int) -> list[Input]:
    """Large Delta = 9 inputs: caterpillars, then 64 gallery copies and 32
    sweep9 members as two unions, each union in two seeded orders.

    The caterpillars keep the spine-first vertex order, under which the peel
    is slowest: a random order changes their solve time by up to half, which
    would let the seed, not the code, set the figures.  With one order of
    each union the workload's median fell on one input sampled four or five
    times a run, and moved by 15 % between runs.  With more than two, the
    largest caterpillar would fall below a tenth of the inputs and the 90th
    percentile would land in the gap between the two largest caterpillars.
    """
    from pentagem.instances import gallery_g2

    out = []
    for spine in CATERPILLAR_SPINES:
        n, edges = caterpillar(spine)
        out.append(_make(f"caterpillar({n})", n, edges))
    g2 = gallery_g2(9)
    unions = [("gallery_g2(9)x64", *_union([(g2.n, list(g2.edges()))] * 64)),
              ("sweep9x32", *_union((pn, pe) for _, pn, pe in _sweep9_members(32)))]
    return out + _in_orders(unions, random.Random(seed), orders=2)


BUILDERS = {"sweep9": sweep9, "core9": core9, "delta": delta, "scale": scale}
