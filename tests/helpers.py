"""Independent brute-force oracles for the test suite.

Everything here is written the slow, obvious way on purpose: subset scans
and definition-checks that share no pruning logic with the library, so the
two sides can disagree when one of them is wrong.  ``delta_family`` builds
the Delta 10..12 instances that criterion 3 and the solver tests share,
``reference_match_expansion`` is the clique-level template matcher the
module-level one replaced, the ``reference_find_*`` functions are the
four hand-written induced-P4 walks that ``patterns.induced_p4`` replaced,
the ``reference_is_*`` functions the catalog shape tests that built
induced copies, ``reference_find_d1_catalog`` the catalog detector that
walked every triangle and every triple of common edges,
``reference_extend_list_coloring`` the list-coloring search before it
kept free-color masks in place and memoized failures,
``reference_colorable_with`` the recursive DSATUR search the oracle ran
before both became one explicit-stack list search,
``reference_list_color`` that list search before it took cliques for
Hall cuts and built its failure keys only once one failed, and
``reference_verify_coloring`` the edge walk that ``verify_coloring`` ran
before it tested color-class masks, ``reference_parse_graph6`` the graph6
reader that decoded one edge at a time before ``parse_graph6`` read whole
rows, ``reference_adjacency_fault`` the walk over every adjacency entry
that ``Graph`` ran before it checked each pair from its lower end, and
``reference_first_fit`` the first-fit loop that gathered neighbor
colors in a set before ``first_fit`` kept a used-color mask (and later
probed color-class masks), ``reference_brooks_mask`` (with
``_reference_brooks_component``) Brooks coloring as it was before one
pass over the mask counted the degrees that all its checks read, word for
word except that it first-fits with ``reference_first_fit``, and
``reference_brooks_by_degree`` (with ``_reference_brooks_component_by_degree``,
``reference_order_toward_root`` and ``reference_connected_without``) that
coloring as it was before the walk from each component's low root became
the search that finds the component, kept verbatim but for the names, and
``reference_clique_number`` and ``reference_has_clique`` the recursive
branch and bound (with a greedy-coloring bound) and fixed-size test that
an iterative ``patterns`` clique search replaced, ``reference_lex_cliques``
that search, kept verbatim, which grew the lex-least clique of each size
before one lexicographic Bron-Kerbosch answered every clique question, and
``reference_maximal_cliques``,
``reference_hitting_mis`` (with ``reference_hitting_component``) and
``reference_delta_reduce`` the recursive searches on induced copies, one
recursion per level, that degree reduction ran before it became one loop
on host masks; the hitting references peel maximal sets, as degree
reduction does, and take their targets in lex order, as it lists them
(``reference_maximal_cliques`` pivots, so its own order differs).
``brute_cliques`` lists every clique of a given size, grown one vertex at
a time, ``least_clique`` reads the lex-least one off the clique search,
and ``brute_least_maximum_independent_set`` grows every independent set.
``max_degree_in`` is the maximum degree inside a mask, one count a vertex.
``reference_is_p5_gem_free`` and ``reference_match_modules`` are the
freeness test and the module matcher before classification walked and
matched on quotients: both P4 walks on the whole graph, and a search for
every template with as many modules as nodes.
``reference_maximal_modules`` (with ``_reference_closure``) finds the
maximal proper modules as it did before it grew closures over one vertex
per class of true twins: from every vertex.  ``reference_classify`` is
``classify`` as it was before it tried the templates on the twin classes
first: it finds the maximal proper modules of every graph with a C5 and
tries every template on them.  ``benchmark_inputs`` loads
a benchmark workload's inputs, ``core9`` those that reach classification,
and ``core9_cores`` the cores that ``solve`` classifies on them.
``reference_is_cograph`` (with its ``CotreeNode`` tree and
``CographCertificate``), ``reference_cotree_clique_number``,
``reference_cotree_to_graph`` and ``reference_cograph_coloring_with_palette``
are the recursive cotree builder and walkers that the explicit-stack split
of ``pentagem.cographs`` replaced.  ``REFERENCE_APPLIES`` holds the
``oracle``, ``lemma1`` and ``d1_extend`` trace applies as they were when
each built an induced copy of its vertices and colored that.
``cocktail_party`` and ``random_cograph`` build the cographs whose many
maximum cliques defeat a clique search without a coloring bound,
``threshold_graph`` the cographs whose decomposition runs deepest, with
``palette_corpus`` the palette colorings drawn on both, and
``c5_blowup`` the in-class graphs of large degree whose levels run deep,
``cycle_blowup`` the same blow-up of any cycle.  ``padded_member`` is a
class member with 300 isolated vertices before, between and after its ids,
and ``reference_greedy`` the ``greedy`` trace apply as it was before a
one-vertex line took color 1 without a first-fit.
"""

from __future__ import annotations

import importlib.util
import random
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations
from math import isqrt
from pathlib import Path

from pentagem.classify import ClassLabel
from pentagem.errors import (ForbiddenPatternError, GraphFormatError,
                             InternalInconsistencyError, PentagemError, PreconditionError)
from pentagem.coloring import Coloring, color_with_independent_sets, first_fit, greedy_color
from pentagem.graph import (Graph, bits, build_graph, complement, complete_graph,
                            component_masks, connected_components, cycle_graph,
                            disjoint_union, empty_graph, induced_subgraph, is_connected,
                            join, mask_of, path_graph, true_twin_classes)
from pentagem.patterns import (PatternWitness, _colors_at_least, _maximal_cliques,
                               clique_number, find_induced, has_clique, induced_p4,
                               is_p5_gem_free)
from pentagem.oracle import colorable_with
from pentagem.reductions import extend_list_coloring
from pentagem.trace import ORACLE_CAP, _fmt_vs, _mask, _vertices, run_step
from pentagem.instances import (GenSpec, gallery_g2, gen_class_instance,
                                gen_target_delta)
from pentagem.structure import (ANTI, CLASS_ORDER, COMPLETE, FREE, TEMPLATES, Template,
                                check_bag_partition, match_expansion, maximal_modules)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def delta_family() -> list[Graph]:
    """gallery_g2(10..12), then generated members with target Delta 10..12."""
    instances = [gallery_g2(t) for t in (10, 11, 12)]
    seed = 0
    while len(instances) < 50 and seed < 60:
        for cid in ("G1", "G2", "G5", "G6", "G9", "H"):
            for target in (10, 11, 12):
                try:
                    spec = gen_target_delta(cid, target, seed=seed * 53 + 2)
                except PentagemError:
                    continue
                instances.append(gen_class_instance(spec)[0])
        seed += 1
    return instances


def benchmark_inputs(name: str, seed: int):
    """The inputs of the benchmark workload ``name`` at ``seed``."""
    if "perfbench_workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        sys.modules[spec.name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["perfbench_workloads"].BUILDERS[name](seed)


def core9(seed: int):
    """The ``core9`` benchmark inputs: every Delta-9 host with minimum
    degree 8 and clique number at most 8, in four seeded vertex orders."""
    return benchmark_inputs("core9", seed)


def core9_cores(seed: int) -> list[Graph]:
    """The irreducible cores ``solve`` hands ``classify`` on the ``core9``
    inputs of ``seed``, in the order it classifies them."""
    from pentagem import solver
    from pentagem.graphio import parse_graph

    cores: list[Graph] = []
    real = solver.classify
    solver.classify = lambda g: cores.append(g) or real(g)
    try:
        for inp in core9(seed):
            solver.solve(parse_graph(inp.g6, "graph6"))
    finally:
        solver.classify = real
    return cores


def delta9_members(count: int) -> list[Graph]:
    """The first ``count`` graphs of the criterion-2 recipe: Delta = 9
    members of all 11 classes in clique and cograph bag modes."""
    out: list[Graph] = []
    seed = 0
    while True:
        for mode in ("clique", "cograph"):
            for cid in ("G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8", "G9", "G10", "H"):
                try:
                    spec = gen_target_delta(cid, 9, seed=seed * 37 + 11, mode=mode)
                except PentagemError:
                    continue
                out.append(gen_class_instance(spec)[0])
                if len(out) == count:
                    return out
        seed += 1


def caterpillar(spine: int, leaves: int = 7) -> Graph:
    """A path on vertices 0..spine-1, each with ``leaves`` leaves numbered
    after the spine: Delta = leaves + 2 and n = (leaves + 1) * spine, not
    P5-free.  With 7 leaves it is colored end to end by peeling alone."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + leaves * i + j) for i in range(spine) for j in range(leaves)]
    return build_graph((leaves + 1) * spine, edges)


def padded_member() -> Graph:
    """The first criterion-2 graph (14 vertices, Delta 9) with 300 isolated
    vertices: ids 0..99 and the last 100 are isolated, and the other 100
    fall between the member's ids, the lowest and highest of which bound
    the window 100..213 they share."""
    g = delta9_members(1)[0]
    inner = sorted(random.Random(5).sample(range(101, 100 + g.n + 99), g.n - 2))
    ids = [100, *inner, 100 + g.n + 99]
    return build_graph(g.n + 300, [(ids[u], ids[v]) for u, v in g.edges()])


def cycle_blowup(length: int, a: int) -> Graph:
    """C_length[K_a]: the cycle with vertex i blown up into the clique on
    vertices a*i..a*i+a-1, and consecutive bags complete to each other."""
    edges = [(a * i + x, a * i + y) for i in range(length) for x in range(a)
             for y in range(x + 1, a)]
    edges += [(a * i + x, a * ((i + 1) % length) + y) for i in range(length)
              for x in range(a) for y in range(a)]
    return build_graph(length * a, edges)


def c5_blowup(a: int) -> Graph:
    """C5[K_a]: C5 with vertex i blown up into the clique on vertices
    a*i..a*i+a-1, and consecutive bags complete to each other.  n = 5a,
    Delta = 3a - 1 and omega = 2a.  An induced path takes at most one
    vertex of a bag, so it has no P5 and no gem."""
    return cycle_blowup(5, a)


def k9_with_ears() -> Graph:
    """K9 on v0..v8 (vertices 0..8) plus w0..w8 (vertices 9..17), where wi
    is adjacent to vi and v(i+1 mod 9).  Delta is 10 and omega 9, so the
    lazy freeness gate lets it through, but it has a gem.  No maximum
    independent set (the w's) meets the K9; a maximal one through a clique
    vertex does."""
    edges = [(u, v) for u in range(9) for v in range(u + 1, 9)]
    edges += [(i, 9 + i) for i in range(9)]
    edges += [((i + 1) % 9, 9 + i) for i in range(9)]
    return build_graph(18, edges)


def k9_with_a_pendant() -> Graph:
    """K9 on vertices 1..9 plus vertex 0 on vertex 5: Delta = omega = 9,
    and the lex-least maximum clique is not the first nine vertices."""
    edges = [(u, v) for u in range(1, 10) for v in range(u + 1, 10)]
    return build_graph(10, edges + [(0, 5)])


def gate_pins() -> dict[str, Graph]:
    """Inputs that fail the clique bound of ``solve``: K10, ``k9_with_a_pendant``,
    omega = Delta = 11 with two maximum cliques, and a gem beside an omega =
    Delta component (the gem is reported first)."""
    gem = join(complete_graph(1), path_graph(4))
    return {"K10": complete_graph(10),
            "K9 with a pendant": k9_with_a_pendant(),
            "2K1 joined to K10": join(empty_graph(2), complete_graph(10)),
            "K9 with a pendant beside a gem": disjoint_union(k9_with_a_pendant(), gem)}


def non_clique_core() -> Graph:
    """A G2 member with cograph bags, minimum degree 8 and no catalog
    subgraph: only the copycat rule can reduce it, and its bags are not
    cliques, so with that rule disabled it reaches the strategy as is."""
    return gen_class_instance(GenSpec(
        "G2", {"Q1": 5, "Q2": 3, "Q3": 2, "Q4": 2, "Q5": 3, "Q6": 3},
        (), "cograph", 908))[0]


def cocktail_party(k: int) -> Graph:
    """K_{2,...,2} on 2k vertices, the pairs (2i, 2i + 1) the only non-edges:
    a cograph with omega = k and 2^k maximum cliques."""
    return complement(build_graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)]))


def random_cograph(n: int, seed: int) -> Graph:
    """A cograph on n >= 1 vertices, built by random joins and disjoint
    unions down a random split of the vertex count."""
    rng = random.Random(seed)

    def build(n: int) -> Graph:
        if n == 1:
            return empty_graph(1)
        k = rng.randint(1, n - 1)
        a, b = build(k), build(n - k)
        return join(a, b) if rng.random() < 0.5 else disjoint_union(a, b)

    return build(n)


def threshold_graph(n: int, seed: int | None = None) -> Graph:
    """Each vertex in turn sees all earlier ones or none: the odd ones with
    no seed, else a seeded coin decides.  A cograph whose decomposition is
    one join or union per alternation, up to n - 1 levels deep."""
    rng = random.Random(seed)
    return build_graph(n, [(u, v) for v in range(n)
                           if (v % 2 if seed is None else rng.random() < 0.5)
                           for u in range(v)])


def palette_corpus() -> list[tuple[Graph, list[int], dict[int, int]]]:
    """(cograph, palette, fixed) triples: 150 random cographs (n <= 60) and
    80 threshold graphs (n <= 40), each with its lex-least maximum clique
    fixed to distinct colors of a palette of omega to omega + 2 colors."""
    rng = random.Random(18)
    graphs = [random_cograph(rng.randint(1, 60), rng.randrange(10**6)) for _ in range(150)]
    graphs += [threshold_graph(n, seed) for n in range(1, 41) for seed in (None, n)]
    corpus = []
    for g in graphs:
        omega, witness = clique_number(g)
        for extra in range(3):
            palette = sorted(rng.sample(range(1, 2 * omega + 10), omega + extra))
            corpus.append((g, palette, dict(zip(witness, rng.sample(palette, omega)))))
    return corpus


def criterion5_members() -> list[tuple[Graph, Template, dict[str, tuple[int, ...]]]]:
    """The 120 cograph expansions (n <= 18) that acceptance criterion 5
    reduces and lifts, in its order, with their templates and bags."""
    members = []
    for seed in range(90):
        for cid in ("G1", "G2", "G3", "H"):
            t = TEMPLATES[cid]
            body = [n for n in t.nodes if n != t.pendant]
            rng = random.Random(seed * 211 + len(cid))
            sizes = {n: rng.randint(1, 3) for n in body}
            a7 = (rng.randint(1, 3),) if t.pendant else ()
            g, bags = gen_class_instance(GenSpec(cid, sizes, a7, "cograph", seed))
            if g.n <= 18:
                members.append((g, t, bags))
            if len(members) == 120:
                return members
    return members


def catalog_shapes() -> list[Graph]:
    """K3 v 3K2, then K4 joined to each of the 16 spanning subgraphs of C4:
    every one keeps the two disjoint non-edges 0-2 and 1-3."""
    c4_edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    three_k2 = disjoint_union(disjoint_union(complete_graph(2), complete_graph(2)),
                              complete_graph(2))
    shapes = [join(complete_graph(3), three_k2)]
    for r in range(len(c4_edges) + 1):
        for keep in combinations(c4_edges, r):
            shapes.append(join(complete_graph(4), build_graph(4, keep)))
    return shapes


def prism_cores() -> list[Graph]:
    """The triangular prism (the complement of C6) with each vertex blown up
    into a clique bag, the sizes on each triangle a permutation of
    (2, 2, 3): nine connected graphs with n = 14, Delta = 9, minimum degree
    8 and omega = 7, free of P5, gem and C5, with no copycat pair and no
    catalog graph, so each reaches ``solve`` as one perfect core."""
    prism = complement(cycle_graph(6))  # triangles 0, 2, 4 and 1, 3, 5
    orders = sorted(set(permutations((2, 2, 3))))
    out = []
    for p in orders:
        for q in orders:
            sizes = (p[0], q[0], p[1], q[1], p[2], q[2])
            start = [sum(sizes[:i]) for i in range(7)]
            bag = [range(start[i], start[i + 1]) for i in range(6)]
            out.append(build_graph(14, [
                (u, v) for i in range(6) for j in range(i, 6)
                if i == j or prism.has_edge(i, j)
                for u in bag[i] for v in bag[j] if u < v]))
    return out


def brute_chromatic(g: Graph) -> int:
    """Smallest k admitting a proper coloring, by plain backtracking."""
    if g.n == 0:
        return 0

    def colorable(k: int) -> bool:
        colors = [0] * g.n

        def place(v: int) -> bool:
            if v == g.n:
                return True
            for c in range(1, k + 1):
                if all(colors[u] != c for u in g.neighbors(v) if u < v):
                    colors[v] = c
                    if place(v + 1):
                        return True
                    colors[v] = 0
            return False

        return place(0)

    for k in range(1, g.n + 1):
        if colorable(k):
            return k
    raise AssertionError("unreachable")


def _induces(g: Graph, vs: tuple[int, ...], pattern_edges: set[tuple[int, int]]) -> bool:
    k = len(vs)
    for i in range(k):
        for j in range(i + 1, k):
            if g.has_edge(vs[i], vs[j]) != ((i, j) in pattern_edges):
                return False
    return True


P5_EDGES = {(0, 1), (1, 2), (2, 3), (3, 4)}
C5_EDGES = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
GEM_EDGES = {(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)}

PATTERN_EDGES = {"P5": P5_EDGES, "C5": C5_EDGES, "GEM": GEM_EDGES}


def brute_find_induced(g: Graph, pattern: str) -> tuple[int, ...] | None:
    """Lexicographically least ordered witness via full permutation scan."""
    pe = PATTERN_EDGES[pattern]
    best = None
    for combo in combinations(range(g.n), 5):
        for perm in permutations(combo):
            if _induces(g, perm, pe):
                if best is None or perm < best:
                    best = perm
    return best


def brute_has_induced(g: Graph, pattern: str) -> bool:
    pe = PATTERN_EDGES[pattern]
    for combo in combinations(range(g.n), 5):
        for perm in permutations(combo):
            if _induces(g, perm, pe):
                return True
    return False


def reference_is_p5_gem_free(g: Graph) -> tuple[bool, PatternWitness | None]:
    """``patterns.is_p5_gem_free`` before it walked one vertex per twin
    class first, kept verbatim: both walks on the whole graph."""
    for pattern in ("P5", "GEM"):
        w = find_induced(g, pattern)
        if w is not None:
            return False, w
    return True, None


# The four P4 walks ``patterns.induced_p4`` replaced, kept verbatim as its
# reference: P5, gem and C5 over the whole graph, P4 inside a mask.

def reference_find_p5(g: Graph) -> tuple[int, ...] | None:
    adj = g.adj
    for v1 in range(g.n):
        c1 = g.closed(v1)
        for v2 in bits(adj[v1]):
            c2 = g.closed(v2)
            for v3 in bits(adj[v2] & ~c1):
                c3 = g.closed(v3)
                for v4 in bits(adj[v3] & ~c1 & ~c2):
                    m5 = adj[v4] & ~c1 & ~c2 & ~c3
                    if m5:
                        v5 = (m5 & -m5).bit_length() - 1
                        return (v1, v2, v3, v4, v5)
    return None


def reference_find_gem(g: Graph) -> tuple[int, ...] | None:
    # Ordered as (p1, p2, p3, p4, apex): induced P4 plus a common neighbor.
    adj = g.adj
    for v1 in range(g.n):
        c1 = g.closed(v1)
        for v2 in bits(adj[v1]):
            c2 = g.closed(v2)
            for v3 in bits(adj[v2] & ~c1):
                c3 = g.closed(v3)
                for v4 in bits(adj[v3] & ~c1 & ~c2):
                    apex = adj[v1] & adj[v2] & adj[v3] & adj[v4]
                    if apex:
                        a = (apex & -apex).bit_length() - 1
                        return (v1, v2, v3, v4, a)
    return None


def reference_find_c5(g: Graph) -> tuple[int, ...] | None:
    adj = g.adj
    for v1 in range(g.n):
        c1 = g.closed(v1)
        b1 = 1 << v1
        for v2 in bits(adj[v1]):
            c2 = g.closed(v2)
            for v3 in bits(adj[v2] & ~c1):
                c3 = g.closed(v3)
                for v4 in bits(adj[v3] & ~c1 & ~c2):
                    m5 = adj[v4] & adj[v1] & ~c2 & ~c3 & ~b1
                    if m5:
                        v5 = (m5 & -m5).bit_length() - 1
                        return (v1, v2, v3, v4, v5)
    return None


def reference_find_p4(g: Graph, mask: int) -> tuple[int, int, int, int] | None:
    for v1 in bits(mask):
        c1 = g.closed(v1)
        for v2 in bits(g.adj[v1] & mask):
            c2 = g.closed(v2)
            for v3 in bits(g.adj[v2] & mask & ~c1):
                m4 = g.adj[v3] & mask & ~c1 & ~c2
                if m4:
                    v4 = (m4 & -m4).bit_length() - 1
                    return (v1, v2, v3, v4)
    return None


# The catalog shape tests before they read the host through a mask, kept
# verbatim as the reference for the mask versions.

def reference_is_k3_join_3k2(g: Graph, vs: tuple[int, ...]) -> bool:
    """Do the 9 vertices induce the join of a triangle with a perfect matching?"""
    if len(vs) != 9 or len(set(vs)) != 9:
        return False
    sub, _ = induced_subgraph(g, vs)
    hubs = [v for v in range(9) if sub.degree(v) == 8]
    if len(hubs) != 3:
        return False
    rest = [v for v in range(9) if v not in hubs]
    if any(sub.degree(v) != 4 for v in rest):
        return False
    inner, _ = induced_subgraph(sub, rest)
    return inner.m == 3 and all(inner.degree(v) == 1 for v in range(6))


def reference_is_k4_join_two_nonedges(g: Graph, vs: tuple[int, ...]) -> bool:
    """Do the 8 vertices induce K4 joined to a 4-set with 2 disjoint non-edges?"""
    if len(vs) != 8 or len(set(vs)) != 8:
        return False
    sub, _ = induced_subgraph(g, vs)
    hubs = [v for v in range(8) if sub.degree(v) == 7]
    if len(hubs) != 4:
        return False
    rest = [v for v in range(8) if v not in hubs]
    pairings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    for (a, b), (c, d) in pairings:
        if (not sub.has_edge(rest[a], rest[b])
                and not sub.has_edge(rest[c], rest[d])):
            return True
    return False


# ``reductions.find_d1_catalog`` and its triangle walk before the search
# started only from anchors that can complete a shape, kept verbatim as
# the reference: every triangle, and every triple of common edges.

def _reference_triangles(g: Graph):
    for u in range(g.n):
        au = g.adj[u] & (~0 << (u + 1))
        for v in bits(au):
            for w in bits(g.adj[v] & au & (~0 << (v + 1))):
                yield u, v, w


def reference_find_d1_catalog(g: Graph) -> tuple[int, ...] | None:
    """An induced member of the removable catalog, or None (exhaustive)."""
    for u, v, w in _reference_triangles(g):
        common = g.adj[u] & g.adj[v] & g.adj[w]
        if common.bit_count() < 6:
            continue
        # three pairwise anticomplete edges inside the common part, taken
        # in lexicographic order
        edges = [1 << a | 1 << b for a in bits(common)
                 for b in bits(g.adj[a] & common & (~0 << (a + 1)))]
        for e1, e2, e3 in combinations(edges, 3):
            six = e1 | e2 | e3
            if six.bit_count() == 6 and all(
                    (g.adj[x] & six).bit_count() == 1 for x in bits(six)):
                return tuple(sorted((u, v, w, *bits(six))))
    for u, v, w in _reference_triangles(g):
        tri = g.adj[u] & g.adj[v] & g.adj[w]
        for x in bits(tri & (~0 << (w + 1))):
            common = tri & g.adj[x]
            if common.bit_count() < 4:
                continue
            for a, b, c, d in combinations(bits(common), 4):
                if any(not g.has_edge(p, q) and not g.has_edge(r, s)
                       for p, q, r, s in ((a, b, c, d), (a, c, b, d),
                                          (a, d, b, c))):
                    return tuple(sorted((u, v, w, x, a, b, c, d)))
    return None


# ``reductions.extend_list_coloring`` before it kept free-color masks in
# place and memoized failed states, kept verbatim as its reference.

def reference_extend_list_coloring(h: Graph, lists: dict[int, frozenset[int] | set[int]]
                                   ) -> dict[int, int]:
    """Color a catalog graph from per-vertex lists, by exhaustive backtracking.

    Requires |L(v)| >= d(v)-1 and h to be one of the catalog shapes, for
    which a coloring is guaranteed to exist; exhausting the search therefore
    signals a bug or a non-catalog input, not an unlucky assignment.

    Lists and the colors each vertex's assigned neighbors hold are color
    bitmasks (colors are non-negative integers).  Each step colors the
    vertex with the fewest free colors, ties to the higher degree, then the
    lower index, and tries its free colors in increasing order; the first
    complete assignment is returned in the order it was made.
    """
    all_vs = tuple(range(h.n))
    if not (reference_is_k3_join_3k2(h, all_vs) if h.n == 9
            else reference_is_k4_join_two_nonedges(h, all_vs) if h.n == 8 else False):
        raise PreconditionError("graph is not one of the catalog shapes")
    for v in range(h.n):
        if len(lists.get(v, ())) < h.degree(v) - 1:
            raise PreconditionError(f"list of vertex {v} below d(v)-1")

    allowed = [mask_of(lists[v]) for v in range(h.n)]
    neg_deg = [-h.degree(v) for v in range(h.n)]
    assigned: dict[int, int] = {}

    def solve(left: int, taken: list[int]) -> bool:
        if not left:
            return True
        v = min(bits(left), key=lambda u: (
            (allowed[u] & ~taken[u]).bit_count(), neg_deg[u], u))
        rest = left & ~(1 << v)
        nbrs = tuple(bits(h.adj[v] & rest))
        for c in bits(allowed[v] & ~taken[v]):
            below = taken[:]
            for u in nbrs:
                below[u] |= 1 << c
            assigned[v] = c
            if solve(rest, below):
                return True
            del assigned[v]
        return False

    if not solve(h.full_mask(), [0] * h.n):
        raise InternalInconsistencyError(
            "catalog graph refused a d1-style list assignment")
    return assigned


# ``coloring.list_color`` before it took cliques for Hall cuts and built
# its failure keys lazily, kept verbatim as its reference.

def reference_list_color(adj, mask: int, free, fixed: dict[int, int]) -> dict[int, int] | None:
    """The first proper coloring of the subgraph ``adj`` induces on ``mask``
    that keeps the ``fixed`` colors and gives each other vertex v a color of
    its list, the bitmask ``free[v]`` (``free`` is keyed by vertex), fixed
    vertices first, then the rest in the order colored; or None.

    An exact search on an explicit stack.  It colors the vertex with the
    fewest free colors (ties: more neighbors in ``mask``, then lower id)
    with each free color in turn, lowest first, but skips a color no vertex
    holds if a lower such color lies in exactly the same lists: swapping
    the two maps its branch onto one already tried.  A node's subtree
    depends only on its uncolored set and their free masks, so a node whose
    key failed once is cut.  Neither cut removes the first solution.
    """
    colors, used, left = dict(fixed), mask_of(fixed.values()), mask & ~mask_of(fixed)
    free = {u: free[u] for u in bits(left)}
    for v, c in fixed.items():
        for u in bits(adj[v] & left):
            free[u] &= ~(1 << c)
    # w bits hold any id or degree in mask, so one int ranks (size, tie)
    w = mask.bit_length().bit_length()
    top, shift = (1 << w) - 1, 2 * w
    tie = {u: (top - (adj[u] & mask).bit_count()) << w | u for u in free}
    # sets of two or more colors that exactly the same uncolored vertices list
    lists = {free[u] for u in tie}
    twins = [reduce(int.__or__, lists, 0)]
    for f in lists:
        if not twins:
            break
        twins = [p for grp in twins for p in (grp & f, grp & ~f) if p & p - 1]
    dead, stack = set(), []  # stack: (key, v, rest, nbrs, colors left, color, hit, fresh)
    while left:
        key, best, m = [left], -1, left
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            key.append(free[u])
            rank = free[u].bit_count() << shift | tie[u]
            if best < 0 or rank < best:
                best, v = rank, u
        key = tuple(key)
        if key not in dead:
            cs, rest = free[v], left & ~(1 << v)
            for grp in twins:  # v lists all of a group's unused colors or none
                x = grp & cs & ~used
                cs ^= x & x - 1
            stack.append((key, v, rest, tuple(bits(adj[v] & rest)), cs, 0, (), 0))
        while stack:  # color the top vertex with its next color, if any
            key, v, rest, nbrs, cs, low, hit, fresh = stack.pop()
            for u in hit:
                free[u] |= low
            used ^= fresh
            if cs:
                low = cs & -cs
                hit = [u for u in nbrs if free[u] & low]
                for u in hit:
                    free[u] ^= low
                fresh = low & ~used
                used |= low
                colors[v] = low.bit_length() - 1
                stack.append((key, v, rest, nbrs, cs ^ low, low, hit, fresh))
                left = rest
                break
            colors.pop(v, None)
            dead.add(key)
        else:
            return None
    return colors


# ``oracle.colorable_with`` before it ran on ``coloring.list_color``: a
# recursive DSATUR search over per-vertex neighbor-color sets, kept verbatim
# as its reference.

def reference_colorable_with(g: Graph, k: int, seed_clique: tuple[int, ...] | None = None
                             ) -> dict[int, int] | None:
    """Deterministic k-colorability search; returns a coloring or None.

    Symmetry is broken by pre-coloring a maximum clique 1..|K| and by letting
    a vertex open at most one fresh color beyond those already used.  The
    branching vertex is the most saturated one (ties: highest degree, then
    smallest id), a DSATUR-style choice.
    """
    if k <= 0:
        return {} if g.n == 0 else None
    if seed_clique is None:
        _, seed_clique = clique_number(g)
    if len(seed_clique) > k:
        return None
    colors: dict[int, int] = {}
    neighbor_colors: dict[int, set[int]] = {v: set() for v in range(g.n)}

    def set_color(v: int, c: int) -> None:
        colors[v] = c
        for u in bits(g.adj[v]):
            neighbor_colors[u].add(c)

    def unset_color(v: int, c: int) -> None:
        del colors[v]
        for u in bits(g.adj[v]):
            if all(colors.get(w) != c for w in bits(g.adj[u])):
                neighbor_colors[u].discard(c)

    for i, v in enumerate(seed_clique):
        set_color(v, i + 1)

    def pick() -> int | None:
        best = None
        key = None
        for v in range(g.n):
            if v in colors:
                continue
            cand = (len(neighbor_colors[v]), g.degree(v), -v)
            if key is None or cand > key:
                key = cand
                best = v
        return best

    def solve(used: int) -> bool:
        v = pick()
        if v is None:
            return True
        limit = min(k, used + 1)
        for c in range(1, limit + 1):
            if c in neighbor_colors[v]:
                continue
            set_color(v, c)
            if solve(max(used, c)):
                return True
            unset_color(v, c)
        return False

    if solve(len(seed_clique)):
        return dict(colors)
    return None


def reference_verify_coloring(g: Graph, coloring: Coloring) -> bool:
    """True iff total, within palette, and no edge is monochromatic."""
    c = coloring.colors
    if len(c) != g.n:
        return False
    for v in range(g.n):
        cv = c.get(v)
        if cv is None or not 1 <= cv <= coloring.k:
            return False
    for u, v in g.edges():
        if c[u] == c[v]:
            return False
    return True


_G6_OUT_OF_RANGE = re.compile(r"[^?-~]")
_G6_NONZERO = re.compile(r"[^?]")


def reference_adjacency_fault(n: int, adj) -> str | None:
    """The message of the first fault in ``adj`` walked vertex by vertex and
    neighbor by neighbor, or None when it is a simple graph's adjacency."""
    if n < 0 or len(adj) != n:
        return f"adjacency length {len(adj)} does not match n={n}"
    full = (1 << n) - 1
    for v, m in enumerate(adj):
        if m & (1 << v):
            return f"loop at vertex {v}"
        if m & ~full:
            return f"adjacency of {v} mentions vertices >= {n}"
        for u in bits(m):
            if not adj[u] & (1 << v):
                return f"asymmetric adjacency between {u} and {v}"
    return None


def reference_parse_graph6(text: str) -> Graph:
    """Decode one graph6 line, one edge at a time from the body characters
    other than ``?``."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    if _G6_OUT_OF_RANGE.search(s):
        raise GraphFormatError("graph6 characters out of range")
    head = [ord(ch) - 63 for ch in s[:4]]
    if head[0] < 63:
        n, body = head[0], s[1:]
    elif len(head) == 4 and head[1] < 63:
        n = (head[1] << 12) | (head[2] << 6) | head[3]
        body = s[4:]
    else:
        raise GraphFormatError("graph6 orders above 258047 are not supported")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise GraphFormatError(f"graph6 body length {len(body)}, expected {need}")
    edges = []
    for hit in _G6_NONZERO.finditer(body):
        d, k0 = ord(hit.group()) - 63, 6 * hit.start()
        for b in range(6):
            k = k0 + b
            if d >> (5 - b) & 1 and k < nbits:
                v = (1 + isqrt(8 * k + 1)) // 2
                edges.append((k - v * (v - 1) // 2, v))
    return build_graph(n, edges)


def reference_first_fit(adj, order, k: int, colors: dict[int, int]) -> None:
    """First-fit along ``order`` into ``colors``, from the set of neighbor colors."""
    for v in order:
        used = {colors[u] for u in bits(adj[v]) if u in colors}
        c = 1
        while c in used:
            c += 1
        if c > k:
            raise PreconditionError(f"greedy needs more than {k} colors at vertex {v}")
        colors[v] = c


def reference_connected_without(adj, mask: int, removed: int) -> bool:
    return len(component_masks(adj, mask & ~removed)) <= 1


def reference_order_toward_root(adj, mask: int, root: int) -> list[int]:
    """The vertices of ``mask`` reached from ``root`` inside it, by decreasing
    BFS distance (ties to the lower id, root last); every non-root vertex
    keeps one neighbor later on."""
    layers = []
    seen = frontier = 1 << root
    while frontier:
        layers.append(frontier)
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & mask & ~seen
        seen |= frontier
    return [v for layer in reversed(layers) for v in bits(layer)]


def _reference_brooks_component_by_degree(adj, comp: int, delta: int,
                                          deg: dict[int, int]) -> dict[int, int]:
    """Color the connected subgraph ``adj`` induces on ``comp`` with at most
    ``delta`` colors; ``deg`` holds each vertex's degree inside it."""
    colors: dict[int, int] = {}
    low = next((v for v in bits(comp) if deg[v] < delta), None)
    if low is not None:
        first_fit(adj, reference_order_toward_root(adj, comp, low), delta, colors)
        return colors
    # delta-regular from here on, and delta >= 3 (``brooks_mask`` checks)
    cut = next((v for v in bits(comp) if not reference_connected_without(adj, comp, 1 << v)),
               None)
    if cut is not None:
        # color each side with the cut, then swap two colors on later sides
        # so the cut keeps the color the first side gave it
        for side in component_masks(adj, comp & ~(1 << cut)):
            part = side | 1 << cut
            local: dict[int, int] = {}
            first_fit(adj, reference_order_toward_root(adj, part, cut), delta, local)
            have = local[cut]
            want = colors.get(cut, have)
            swap = {have: want, want: have}
            for v, c in local.items():
                colors[v] = swap.get(c, c)
        return colors
    # 2-connected, regular, not complete: classic two-neighbor trick
    for x in bits(comp):
        nbrs = tuple(bits(adj[x] & comp))
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                pair = 1 << u | 1 << w
                if adj[u] & pair or not reference_connected_without(adj, comp, pair):
                    continue
                colors = {u: 1, w: 1}
                first_fit(adj, reference_order_toward_root(adj, comp & ~pair, x), delta, colors)
                return colors
    raise InternalInconsistencyError("Brooks case analysis fell through")


def reference_brooks_by_degree(adj, mask: int, deg: dict[int, int], delta: int
                               ) -> dict[int, int]:
    """``brooks_mask``'s coloring, given ``deg = _degrees_in(adj, mask)`` and
    its maximum ``delta``."""
    if delta < 3:
        raise PreconditionError("Brooks coloring requires maximum degree >= 3")
    colors: dict[int, int] = {}
    for comp in component_masks(adj, mask):
        if comp.bit_count() == delta + 1 and all(deg[v] == delta for v in bits(comp)):
            raise PreconditionError("component is the complete graph on Delta+1 vertices")
        colors.update(_reference_brooks_component_by_degree(adj, comp, delta, deg))
    return colors


def _reference_brooks_component(adj, comp: int, delta: int) -> dict[int, int]:
    """Color the connected subgraph ``adj`` induces on ``comp`` with at most
    ``delta`` colors."""
    colors: dict[int, int] = {}
    low = next((v for v in bits(comp) if (adj[v] & comp).bit_count() < delta), None)
    if low is not None:
        reference_first_fit(adj, reference_order_toward_root(adj, comp, low), delta, colors)
        return colors
    # delta-regular from here on, and delta >= 3 (``brooks_mask`` checks)
    cut = next((v for v in bits(comp) if not reference_connected_without(adj, comp, 1 << v)), None)
    if cut is not None:
        # color each side with the cut, then swap two colors on later sides
        # so the cut keeps the color the first side gave it
        for side in component_masks(adj, comp & ~(1 << cut)):
            part = side | 1 << cut
            local: dict[int, int] = {}
            reference_first_fit(adj, reference_order_toward_root(adj, part, cut), delta, local)
            have = local[cut]
            want = colors.get(cut, have)
            swap = {have: want, want: have}
            for v, c in local.items():
                colors[v] = swap.get(c, c)
        return colors
    # 2-connected, regular, not complete: classic two-neighbor trick
    for x in bits(comp):
        nbrs = tuple(bits(adj[x] & comp))
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                pair = 1 << u | 1 << w
                if adj[u] & pair or not reference_connected_without(adj, comp, pair):
                    continue
                colors = {u: 1, w: 1}
                reference_first_fit(adj, reference_order_toward_root(adj, comp & ~pair, x), delta,
                                    colors)
                return colors
    raise InternalInconsistencyError("Brooks case analysis fell through")


def reference_brooks_mask(adj, mask: int) -> tuple[dict[int, int], int]:
    """Color the subgraph ``adj`` induces on ``mask`` with colors 1..delta,
    keyed by the ids of ``adj``, where delta is its maximum degree; return
    the coloring and delta.

    Each component is colored on its own, always with the whole subgraph's
    delta: first-fit toward a root of degree below delta; else, in a
    delta-regular component, side by side around its first cut vertex;
    else by the two-neighbor trick (Lovász 1975).  Ids are only compared,
    so the coloring of a copy numbered in the same order is the same.
    """
    delta = max_degree_in(adj, mask)
    if delta < 3:
        raise PreconditionError("Brooks coloring requires maximum degree >= 3")
    colors: dict[int, int] = {}
    for comp in component_masks(adj, mask):
        if comp.bit_count() == delta + 1 and all(
                (adj[v] & comp).bit_count() == delta for v in bits(comp)):
            raise PreconditionError("component is the complete graph on Delta+1 vertices")
        colors.update(_reference_brooks_component(adj, comp, delta))
    return colors, delta


def _reference_greedy_color_bound(g: Graph, cand: int) -> int:
    """Number of colors greedy needs on the candidate set; bounds its clique."""
    classes: list[int] = []
    for v in bits(cand):
        av = g.adj[v]
        for i, cls in enumerate(classes):
            if not av & cls:
                classes[i] = cls | (1 << v)
                break
        else:
            classes.append(1 << v)
    return len(classes)


def reference_clique_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with the lexicographically least maximum witness.

    Branch and bound over lexicographically ordered extensions; the greedy
    coloring bound prunes subtrees that cannot beat the incumbent, which never
    skips a strictly larger clique, so the first clique of maximum size found
    in lex order is the lex-least one.
    """
    best: list[int] = []
    best_size = 0

    def expand(current: list[int], cand: int) -> None:
        nonlocal best, best_size
        if not cand:
            if len(current) > best_size:
                best_size = len(current)
                best = list(current)
            return
        if len(current) + _reference_greedy_color_bound(g, cand) <= best_size:
            return
        for v in bits(cand):
            if len(current) + (cand >> v).bit_count() <= best_size:
                return
            current.append(v)
            expand(current, cand & g.adj[v] & (~0 << v))
            current.pop()

    expand([], g.full_mask())
    return best_size, tuple(best)


def reference_has_clique(g: Graph, mask: int, size: int) -> bool:
    """True iff the subgraph induced on ``mask`` has a clique of ``size``
    vertices; exact, and cheaper than ``clique_number`` when only the
    answer is needed.

    A vertex with fewer than ``size - 1`` neighbors inside the mask lies in
    no such clique, so it is dropped first.  Cliques then grow in lex order,
    each from the candidates adjacent to all of it and later than its last
    vertex, and a branch is cut once those are fewer than it still needs.
    """
    adj = g.adj
    keep = mask_of(v for v in bits(mask) if (adj[v] & mask).bit_count() >= size - 1)

    def grow(cand: int, need: int) -> bool:
        while cand.bit_count() >= need:
            b = cand & -cand
            cand ^= b
            if need == 1 or grow(cand & adj[b.bit_length() - 1], need - 1):
                return True
        return False

    return size <= 0 or grow(keep, size)


def reference_lex_cliques(g: Graph, mask: int, size: int) -> Iterator[tuple[int, ...]]:
    """Yield the lexicographically least clique of ``size`` vertices inside
    ``mask``, then of ``size + 1``, and so on, up to the largest there is.

    A vertex with fewer than ``size - 1`` neighbors inside the mask lies in
    no such clique, so it is dropped first.  Cliques then grow in lex order
    on an explicit stack: each level takes its candidates (adjacent to the
    whole clique so far and later than its last vertex) lowest first and
    goes back up once fewer are left than the clique still needs, and a
    vertex is not entered when a greedy coloring of the candidates it
    leaves has fewer classes than the clique would still need after it
    (Carraghan & Pardalos, Oper. Res. Lett. 1990, with a coloring bound).
    Neither cut skips a clique of the size sought, so the first completed
    is the lex-least.  Everything passed over before it holds no clique of
    that size, hence none larger, so the walk goes on from it for the next
    size and one search finds them all.
    """
    adj = g.adj
    cand = mask_of(v for v in bits(mask) if (adj[v] & mask).bit_count() >= size - 1)
    clique: list[int] = []
    left: list[int] = []  # the candidates still to try at each level above
    while True:
        if len(clique) >= size:
            yield tuple(clique)
            size = len(clique) + 1
        need = size - len(clique)
        if cand.bit_count() >= need:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            nxt = cand & adj[v]
            if need < 3 or (nxt.bit_count() >= need - 1
                           and _colors_at_least(adj, nxt, need - 1)):
                clique.append(v)
                left.append(cand)
                cand = nxt
        elif clique:
            clique.pop()
            cand = left.pop()
        else:
            return


def reference_maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """Bron-Kerbosch with pivoting; yields cliques as sorted tuples."""
    out: list[tuple[int, ...]] = []

    def bk(r: list[int], p: int, x: int) -> None:
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot_pool = p | x
        pivot = max(bits(pivot_pool), key=lambda u: (g.adj[u] & p).bit_count())
        for v in bits(p & ~g.adj[pivot]):
            bk(r + [v], p & g.adj[v], x & g.adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    bk([], g.full_mask(), 0)
    return out


def reference_hitting_mis(g: Graph) -> tuple[int, ...]:
    """Maximal independent set that meets every clique of size Delta-1,
    searched on an induced copy of each component."""
    delta, full = g.max_degree(), g.full_mask()
    if has_clique(g, full, delta):
        raise PreconditionError(f"clique number {clique_number(g)[0]} exceeds {delta - 1}")
    comps = connected_components(g)
    if len(comps) == 1:
        return reference_hitting_component(g, delta - 1)
    out: list[int] = []
    for comp in comps:
        sub, ids = induced_subgraph(g, comp)
        out.extend(ids[v] for v in reference_hitting_component(sub, delta - 1))
    return tuple(sorted(out))


def reference_hitting_component(g: Graph, size: int) -> tuple[int, ...]:
    """Maximal independent set of ``g`` meeting every clique of ``size``
    vertices: the first hitting choice found by recursion, then the lowest
    vertex left, again and again.  The targets are taken in lex order."""
    targets = [mask_of(c) for c in sorted(reference_maximal_cliques(g)) if len(c) == size]

    def phase1(chosen: list[int], avail: int, unhit: list[int]) -> tuple[int, ...] | None:
        live = [t for t in unhit if not t & mask_of(chosen)]
        if not live:
            while avail:
                v = (avail & -avail).bit_length() - 1
                chosen.append(v)
                avail &= ~g.closed(v)
            return tuple(sorted(chosen))
        t = min(live, key=lambda t: (t & avail).bit_count())
        for v in bits(t & avail):
            got = phase1(chosen + [v], avail & ~g.closed(v), live)
            if got is not None:
                return got
        return None

    got = phase1([], g.full_mask(), targets)
    if got is None:
        raise InternalInconsistencyError("no independent set hits every (Delta-1)-clique")
    gm = mask_of(got)
    for t in targets:
        if not t & gm:
            raise InternalInconsistencyError("hitting verification failed")
    return got


def reference_delta_reduce(host: Graph, mask: int, color_base, trace: list | None
                           ) -> dict[int, int]:
    """One level of degree reduction on an induced copy of ``mask``, then
    the next level by recursion: the drop-in for ``solver.delta_reduce``."""
    g, ids = ((host, range(host.n)) if mask == host.full_mask()
              else induced_subgraph(host, bits(mask)))
    delta = g.max_degree()
    peeled = mask_of(ids[v] for v in reference_hitting_mis(g))
    rest = mask & ~peeled
    d_sub = max_degree_in(host.adj, rest)
    if d_sub > delta - 1:
        raise InternalInconsistencyError("removing a maximal independent set "
                                         "failed to lower the maximum degree")
    colors: dict[int, int] = {}
    if d_sub <= delta - 3:
        run_step("greedy", {"vs": tuple(bits(rest)), "k": delta - 2}, host, colors, trace)
    elif d_sub == delta - 2:
        run_step("brooks", {"vs": tuple(bits(rest)), "delta": d_sub}, host, colors, trace)
    elif d_sub == 9:
        colors = color_base(rest)
    else:
        colors = reference_delta_reduce(host, rest, color_base, trace)
    run_step("delta_set", {"i_set": tuple(bits(peeled)), "color": delta - 1},
             None, colors, trace)
    return colors


def max_degree_in(adj, mask: int) -> int:
    """Maximum degree of the graph ``adj`` induces on ``mask`` (0 if empty)."""
    return max(((adj[v] & mask).bit_count() for v in bits(mask)), default=0)


def least_clique(g: Graph, mask: int, size: int) -> tuple[int, ...] | None:
    """The lexicographically least clique of ``size`` vertices inside
    ``mask``, None if there is none: the ``size`` lowest vertices of
    ``patterns._maximal_cliques``'s first answer that large.  A maximal
    clique holding the least clique begins with it, and no earlier one
    begins lower."""
    first = next(_maximal_cliques(g.adj, mask, size), None)
    return None if first is None else tuple(bits(first))[:size]


def brute_cliques(g: Graph, size: int) -> list[tuple[int, ...]]:
    """Every clique of ``size`` vertices, in lex order, each grown one
    larger vertex at a time."""
    level: list[tuple[int, ...]] = [()]
    for _ in range(size):
        level = [c + (v,) for c in level for v in range(c[-1] + 1 if c else 0, g.n)
                 if all(g.has_edge(u, v) for u in c)]
    return level


def brute_clique_number(g: Graph) -> int:
    for size in range(g.n, 0, -1):
        for combo in combinations(range(g.n), size):
            if g.is_clique(combo):
                return size
    return 0


def brute_d1_catalog_present(g: Graph) -> bool:
    """Subset scan against the two catalog definitions."""
    return (any(reference_is_k3_join_3k2(g, combo) for combo in combinations(range(g.n), 9))
            or any(reference_is_k4_join_two_nonedges(g, combo)
                   for combo in combinations(range(g.n), 8)))


def brute_least_maximum_independent_set(g: Graph) -> tuple[int, ...]:
    """The lexicographically least maximum independent set: the first of
    the largest independent sets, each size's listed in lex order, grown
    one larger vertex at a time."""
    level, best = [()], ()
    while level:
        best = level[0]
        level = [s + (v,) for s in level for v in range(s[-1] + 1 if s else 0, g.n)
                 if not any(g.has_edge(u, v) for u in s)]
    return best


def brute_is_cograph(g: Graph) -> bool:
    for combo in combinations(range(g.n), 4):
        for perm in permutations(combo):
            if _induces(g, perm, {(0, 1), (1, 2), (2, 3)}):
                return False
    return True


@dataclass(frozen=True)
class CotreeNode:
    """Decomposition-tree node: leaves are vertices, internal nodes unions/joins."""

    kind: str  # "leaf" | "union" | "join"
    vertex: int | None = None
    children: tuple["CotreeNode", ...] = ()

    def vertex_mask(self) -> int:
        if self.kind == "leaf":
            return 1 << self.vertex
        m = 0
        for c in self.children:
            m |= c.vertex_mask()
        return m


@dataclass(frozen=True)
class CographCertificate:
    """Either a cotree witnessing P4-freeness or an induced-P4 witness."""

    tree: CotreeNode | None = None
    p4: tuple[int, int, int, int] | None = None

    @property
    def is_cograph(self) -> bool:
        return self.tree is not None


def reference_is_cograph(g: Graph) -> CographCertificate:
    """Recognize P4-freeness; returns a cotree or an induced-P4 witness."""
    coadj = [(g.full_mask() & ~m) & ~(1 << v) for v, m in enumerate(g.adj)]

    def build(mask: int) -> CotreeNode | None:
        if mask.bit_count() == 1:
            return CotreeNode("leaf", vertex=mask.bit_length() - 1)
        comps = component_masks(g.adj, mask)
        if len(comps) > 1:
            kids = [build(c) for c in comps]
            if any(k is None for k in kids):
                return None
            return CotreeNode("union", children=tuple(kids))
        cocomps = component_masks(coadj, mask)
        if len(cocomps) > 1:
            kids = [build(c) for c in cocomps]
            if any(k is None for k in kids):
                return None
            return CotreeNode("join", children=tuple(kids))
        return None

    if g.n == 0:
        return CographCertificate(tree=CotreeNode("union", children=()))
    tree = build(g.full_mask())
    if tree is not None:
        return CographCertificate(tree=tree)
    p4 = induced_p4(g, g.full_mask())
    if p4 is None:
        raise InternalInconsistencyError(
            "graph is connected and co-connected yet no induced P4 found")
    return CographCertificate(p4=p4)


def reference_cotree_to_graph(n: int, tree: CotreeNode) -> Graph:
    """Evaluate a cotree back to a graph on n vertices (test utility)."""
    adj = [0] * n

    def walk(node: CotreeNode) -> int:
        if node.kind == "leaf":
            return 1 << node.vertex
        masks = [walk(c) for c in node.children]
        if node.kind == "join":
            for i, mi in enumerate(masks):
                for j, mj in enumerate(masks):
                    if i == j:
                        continue
                    for v in bits(mi):
                        adj[v] |= mj
        total = 0
        for m in masks:
            total |= m
        return total

    walk(tree)
    return Graph(n, adj)


def reference_cotree_clique_number(tree: CotreeNode) -> int:
    """Clique number over the cotree: union = max, join = sum."""
    if tree.kind == "leaf":
        return 1
    parts = [reference_cotree_clique_number(c) for c in tree.children]
    return sum(parts) if tree.kind == "join" else max(parts)


def reference_cograph_coloring_with_palette(tree: CotreeNode, palette: list[int],
                                            fixed: dict[int, int]) -> dict[int, int]:
    """Color a cotree from an explicit palette, honoring fixed vertex colors.

    Requires len(palette) >= clique number of the tree, the fixed colors to
    be drawn from the palette, and fixed vertices in distinct join branches
    to carry distinct colors (always true when the fixed set is a clique
    colored injectively).  Used to lift a reduced-bag coloring back onto the
    whole bag without recoloring the retained clique.
    """
    out: dict[int, int] = {}

    def walk(node: CotreeNode, pal: tuple[int, ...]) -> None:
        if node.kind == "leaf":
            v = node.vertex
            c = fixed.get(v, pal[0])
            if c not in pal:
                raise PreconditionError(f"fixed color {c} outside palette for vertex {v}")
            out[v] = c
            return
        if node.kind == "union":
            for child in node.children:
                walk(child, pal)
            return
        # join: children need pairwise disjoint palettes sized to their cliques
        needs = [reference_cotree_clique_number(c) for c in node.children]
        fixed_per: list[set[int]] = []
        for child in node.children:
            fc = {fixed[v] for v in bits(child.vertex_mask()) if v in fixed}
            fixed_per.append(fc)
        taken = set().union(*fixed_per) if fixed_per else set()
        spare = [c for c in pal if c not in taken]
        idx = 0
        for child, need, fc in zip(node.children, needs, fixed_per):
            sub = sorted(fc)
            while len(sub) < need:
                sub.append(spare[idx])
                idx += 1
            walk(child, tuple(sorted(sub)))

    if reference_cotree_clique_number(tree) > len(palette):
        raise PreconditionError("palette smaller than the clique number")
    walk(tree, tuple(palette))
    return out


def brute_maximal_proper_modules(g: Graph) -> set[frozenset[int]]:
    """Every nonempty proper vertex set that each outside vertex sees all
    or none of, kept when no other such set contains it."""
    def is_module(s: tuple[int, ...]) -> bool:
        return all(len({g.has_edge(w, x) for x in s}) == 1
                   for w in range(g.n) if w not in s)

    modules = [frozenset(s) for r in range(1, g.n)
               for s in combinations(range(g.n), r) if is_module(s)]
    return {s for s in modules if not any(s < t for t in modules)}

def _reference_closure(adj, s: int) -> int:
    """The smallest module holding the vertex set ``s``: add every vertex
    that splits it (sees some but not all of it) until none does."""
    some, every, new = 0, -1, s
    while new:
        for x in bits(new):
            some |= adj[x]
            every &= adj[x]
        new = some & ~every & ~s
        s |= new
    return s


def reference_maximal_modules(g: Graph) -> list[tuple[int, ...]]:
    """The maximal proper modules of ``g``, in matching order: by each one's
    largest homogeneous clique, larger first, ties to the smaller vertex.

    Vertex u joins v's module when the smallest module holding both is not
    the whole graph.  That finds the maximal proper modules whenever they
    are disjoint, as when ``g`` and its complement are both connected;
    otherwise each set found is still a proper module.
    """
    full = left = g.full_mask()
    found = []
    while left:
        m = left & -left
        for u in bits(left & ~m):
            if not m >> u & 1 and (grown := _reference_closure(g.adj, m | 1 << u)) != full:
                m = grown
        found.append(m)
        left &= ~m
    pieces = sorted(true_twin_classes(g.adj, range(g.n)), key=lambda p: (-len(p), p[0]))
    rank = {v: i for i, p in enumerate(pieces) for v in p}
    return [tuple(bits(m)) for m in sorted(found, key=lambda m: min(map(rank.get, bits(m))))]


def reference_classify(g: Graph) -> ClassLabel:
    """``classify`` before it matched the spare-free templates on the twin
    classes, kept verbatim: the modules are found for every graph with a
    C5, and every template is tried on them."""
    if not is_connected(g):
        raise PreconditionError("classification expects a connected graph")
    free, witness = is_p5_gem_free(g)
    if not free:
        raise ForbiddenPatternError(
            f"graph contains an induced {witness.pattern}", witness)
    if find_induced(g, "C5") is None:
        return ClassLabel("Perfect")
    modules = maximal_modules(g)
    for cid in CLASS_ORDER:
        bags = match_expansion(g, TEMPLATES[cid], modules)
        if bags is not None:
            return ClassLabel(cid, bags)
    raise InternalInconsistencyError(
        "connected C5-containing (P5, gem)-free graph matched no template")


def reference_match_expansion(g: Graph, template: Template
                              ) -> dict[str, tuple[int, ...]] | None:
    """The clique-level matcher ``match_expansion`` replaced, kept verbatim
    as the reference for the module-level one.

    Match ``g`` as an expansion of ``template``; exhaustive at desk scale.

    Backtracking assigns each maximal homogeneous clique to one template
    node (sound and complete: no such clique can straddle two bags).  The
    first solution of the fixed search order is returned, which makes the
    result deterministic; this is a documented stand-in for the global
    lexicographic minimum, which would require full enumeration.
    """
    if not is_connected(g):
        raise PreconditionError("expansion matching expects a connected graph")
    k = len(template.nodes)
    if g.n < k:
        return None
    pieces = true_twin_classes(g.adj, range(g.n))
    if len(pieces) < k:
        return None
    order = sorted(range(len(pieces)), key=lambda i: (-len(pieces[i]), pieces[i][0]))
    reps = [p[0] for p in pieces]
    rel = [[template.rel[s][t] if s != t else -1 for t in range(k)] for s in range(k)]

    assign: list[int | None] = [None] * len(pieces)
    slot_count = [0] * k
    result: dict[str, tuple[int, ...]] | None = None

    def compatible(i: int, s: int) -> bool:
        ri = reps[i]
        for j, t in enumerate(assign):
            if t is None or j == i:
                continue
            if t == s:
                continue
            r = rel[s][t]
            if r == FREE:
                continue
            adj = g.has_edge(ri, reps[j])
            if (r == COMPLETE) != adj:
                return False
        return True

    def backtrack(idx: int) -> bool:
        nonlocal result
        if idx == len(order):
            bags = {name: [] for name in template.nodes}
            for j, t in enumerate(assign):
                bags[template.nodes[t]].extend(pieces[j])
            cand = {name: tuple(sorted(vs)) for name, vs in bags.items()}
            if check_bag_partition(g, template, cand):
                return False
            result = cand
            return True
        remaining = len(order) - idx
        if remaining < slot_count.count(0):
            return False
        i = order[idx]
        for s in range(k):
            if not compatible(i, s):
                continue
            assign[i] = s
            slot_count[s] += 1
            if backtrack(idx + 1):
                return True
            slot_count[s] -= 1
            assign[i] = None
        return False

    backtrack(0)
    return result


def reference_match_modules(g: Graph, template: Template, modules: list[tuple[int, ...]]
                            ) -> dict[str, tuple[int, ...]] | None:
    """``structure.match_expansion`` before it compared the module
    quotient's degrees with the template's, kept verbatim: the search runs
    for every template with as many modules as nodes."""
    k, full = len(template.nodes), (1 << len(template.nodes)) - 1
    spare = mask_of(template.nodes.index(x) for x in (template.anchor, template.pendant) if x)
    if len(modules) < k or (len(modules) > k and not spare):
        return None
    # nodes a module may take beside one at node t that it sees or misses;
    # one vertex stands for each module, and only A6 and A7 take several
    ok = {see: [mask_of(s for s in range(k) if (spare >> s & 1 if s == t else
                                                template.rel[s][t] in (see, FREE)))
                for t in range(k)] for see in (COMPLETE, ANTI)}
    reps = [m[0] for m in modules]

    def search(assign: list[int], nodes: list[int], empty: int):
        """Give module ``len(assign)`` onward nodes, module j one of the mask
        ``nodes[j - len(assign)]``; ``empty`` masks the nodes still bare."""
        i = len(assign)
        if i == len(modules):
            bags = {name: tuple(sorted(v for m, s in zip(modules, assign) if s == t
                                       for v in m)) for t, name in enumerate(template.nodes)}
            return None if check_bag_partition(g, template, bags) else bags
        for s in bits(nodes[0]):
            rest = [d & ok[COMPLETE if g.has_edge(reps[i], reps[j]) else ANTI][s]
                    for j, d in enumerate(nodes[1:], i + 1)]
            bare = empty & ~(1 << s)
            if all(rest) and not bare & ~reduce(int.__or__, rest, 0):
                found = search(assign + [s], rest, bare)
                if found is not None:
                    return found
        return None

    return search([], [full] * len(modules), full)


# The ``oracle``, ``lemma1`` and ``d1_extend`` applies of ``pentagem.trace``
# before they colored the host graph through the mask of their vertices:
# each built the induced copy and translated ids in and out of it.  Kept
# verbatim as their references; the functions they call, handed a whole
# graph, still behave as they did then.

def reference_on_subgraph(color):
    """An ``apply`` that colors the subgraph induced on ``vs`` with
    ``color(sub, data, ids)``, a coloring keyed by ``sub``'s vertices."""
    def apply(g: Graph, d: dict, colors: dict[int, int]) -> None:
        sub, ids = induced_subgraph(g, d["vs"])
        for i, c in color(sub, d, ids).items():
            colors[ids[i]] = c
    return apply


def reference_oracle(sub: Graph, d: dict, ids) -> dict[int, int]:
    if sub.n > ORACLE_CAP:
        raise GraphFormatError(f"oracle line over {sub.n} vertices; the cap is {ORACLE_CAP}")
    assign = colorable_with(sub, d["k"])
    if assign is None:
        raise InternalInconsistencyError(f"the oracle found no {d['k']}-coloring")
    return assign


def reference_lemma1(sub: Graph, d: dict, ids) -> dict[int, int]:
    pos = {v: i for i, v in enumerate(ids)}
    sets = [tuple(pos[v] for v in s) for s in d["sets"]]
    order = [pos[v] for v in d["order"]]
    return color_with_independent_sets(sub, sets, d["k"], order=order).colors


def reference_d1_extend(g: Graph, d: dict, colors: dict[int, int]) -> None:
    """List-color the removed catalog graph W: each vertex may take any color
    in 1..k that none of its colored neighbors outside W holds.  A k outside
    1..n, for a graph of order n, or a vertex listed twice in W is rejected
    before any list is built."""
    if not 1 <= d["k"] <= g.n:
        raise GraphFormatError(f"d1_extend line says k={d['k']}, outside 1..{g.n}")
    wm = _mask(g, d["w"])
    if wm.bit_count() != len(d["w"]):
        raise GraphFormatError(f"d1_extend line repeats a vertex in w={_fmt_vs(d['w'])}")
    sub, ids = induced_subgraph(g, d["w"])
    palette = frozenset(range(1, d["k"] + 1))
    lists = {i: mask_of(palette - {colors[x] for x in bits(g.adj[u] & ~wm) if x in colors})
             for i, u in enumerate(ids)}
    for i, c in extend_list_coloring(sub, lists).items():
        colors[ids[i]] = c


def reference_greedy(g: Graph, d: dict, colors: dict[int, int]) -> None:
    """First-fit over ``vs`` in increasing order, seeing only ``vs``."""
    colors.update(greedy_color(g, sorted(set(_vertices(g, d["vs"]))), d["k"]))


REFERENCE_APPLIES = {"oracle": reference_on_subgraph(reference_oracle),
                     "lemma1": reference_on_subgraph(reference_lemma1),
                     "d1_extend": reference_d1_extend}
