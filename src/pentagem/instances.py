"""Deterministic generators: gallery graphs and seeded class members.

Clique expansions of the shipped templates stay (P5, gem)-free because both
forbidden patterns are prime enough that an induced copy meets each bag in
at most one vertex; cograph bags preserve this for the same reason (neither
pattern fits inside a P4-free part).  Generated instances come with their
ground-truth bag partition so structural tests need no matcher.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import PentagemError, PreconditionError
from .graph import Graph, build_graph, complete_graph, cycle_graph, join
from .structure import TEMPLATES

__all__ = [
    "GenSpec",
    "gallery_g1",
    "gallery_g2",
    "gen_class_instance",
    "gen_target_delta",
]

MAX_COGRAPH_BAG = 5
_MAX_RESTARTS = 80  # gen_target_delta's restarts before it gives up
_MAX_VERTICES = 40  # and the most vertices a member it returns may have


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one class member: bag sizes, bag mode, component list, seed."""

    class_id: str
    sizes: dict[str, int]
    a7: tuple[int, ...] = ()
    mode: str = "clique"  # or "cograph"
    seed: int = 0

    def validate(self) -> None:
        if self.class_id not in TEMPLATES:
            raise PreconditionError(f"unknown class {self.class_id!r}")
        t = TEMPLATES[self.class_id]
        body = [n for n in t.nodes if n != t.pendant]
        if sorted(self.sizes) != sorted(body):
            raise PreconditionError(
                f"sizes must cover exactly {body} for class {self.class_id}")
        if any(s < 1 for s in self.sizes.values()):
            raise PreconditionError("bag sizes must be positive")
        if t.pendant is not None:
            if not self.a7 or any(s < 1 for s in self.a7):
                raise PreconditionError("pendant class needs nonempty component sizes")
        elif self.a7:
            raise PreconditionError("component list only applies to the pendant class")
        if self.mode not in ("clique", "cograph"):
            raise PreconditionError(f"unknown bag mode {self.mode!r}")
        if self.mode == "cograph":
            big = max(list(self.sizes.values()) + list(self.a7))
            if big > MAX_COGRAPH_BAG:
                raise PreconditionError(
                    f"cograph bags are capped at {MAX_COGRAPH_BAG} vertices")


def gallery_g1() -> Graph:
    """The 15-vertex tightness example: a pentagon of triangles, consecutive
    triangles completely joined.  Degree 8 everywhere, clique number 6,
    chromatic number 8."""
    g, _ = gen_class_instance(GenSpec("G1", {f"Q{i}": 3 for i in range(1, 6)}))
    return g


def gallery_g2(t: int) -> Graph:
    """The degree-t tightness example: a complete graph on t-4 vertices
    joined to a 5-cycle.  Clique number t-2, chromatic number t-1."""
    if t < 9:
        raise PreconditionError("the gallery family starts at t = 9")
    return join(complete_graph(t - 4), cycle_graph(5))


def _random_cograph_edges(vertices: list[int], rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a random cograph on the given vertices via a random cotree."""
    if len(vertices) <= 1:
        return []
    cut = rng.randint(1, len(vertices) - 1)
    left, right = vertices[:cut], vertices[cut:]
    edges = _random_cograph_edges(left, rng) + _random_cograph_edges(right, rng)
    if rng.random() < 0.5:
        edges.extend((u, v) for u in left for v in right)
    return edges


def gen_class_instance(spec: GenSpec) -> tuple[Graph, dict[str, tuple[int, ...]]]:
    """Build a seeded class member together with its ground-truth bags."""
    spec.validate()
    t = TEMPLATES[spec.class_id]
    rng = random.Random(spec.seed)
    bags: dict[str, tuple[int, ...]] = {}
    units: list[tuple[str, list[int]]] = []
    nxt = 0
    for name in t.nodes:
        if name == t.pendant:
            parts = []
            for size in spec.a7:
                comp = list(range(nxt, nxt + size))
                nxt += size
                units.append((name, comp))
                parts.extend(comp)
            bags[name] = tuple(parts)
        else:
            vs = list(range(nxt, nxt + spec.sizes[name]))
            nxt += len(vs)
            units.append((name, vs))
            bags[name] = tuple(vs)
    edges: list[tuple[int, int]] = []
    for name, vs in units:
        if spec.mode == "clique":
            edges.extend((u, v) for i, u in enumerate(vs) for v in vs[i + 1:])
        else:
            edges.extend(_random_cograph_edges(vs, rng))
    names = list(t.nodes)
    for i, a in enumerate(names):
        for j in range(i + 1, len(names)):
            b = names[j]
            if t.pendant in (a, b):
                continue
            if t.graph.has_edge(i, j):
                edges.extend((u, v) for u in bags[a] for v in bags[b])
    if t.pendant is not None:
        # every pendant component joins all of the anchor bag
        for name, vs in units:
            if name == t.pendant:
                edges.extend((u, v) for u in vs for v in bags[t.anchor])
    return build_graph(nxt, edges), bags


def gen_target_delta(class_id: str, target_delta: int, seed: int,
                     mode: str = "clique") -> GenSpec:
    """Search bag-size vectors until the built member hits the target degree.

    Randomized hill-climbing: start from small random sizes and bump random
    bags while no degree overshoots the target; accept once the maximum
    degree is the target and the clique number stays below it.  Raises after
    a bounded number of restarts rather than silently degrading.
    """
    if not 8 <= target_delta <= 12:
        raise PreconditionError("supported target degrees are 8..12")
    from .patterns import has_clique

    t = TEMPLATES[class_id]
    body = [n for n in t.nodes if n != t.pendant]
    rng = random.Random(seed)
    hi = MAX_COGRAPH_BAG if mode == "cograph" else 6

    def build(sizes: dict[str, int], a7: tuple[int, ...], gseed: int):
        spec = GenSpec(class_id, sizes, a7, mode, seed=gseed)
        g, _ = gen_class_instance(spec)
        return spec, g

    for _ in range(_MAX_RESTARTS):
        sizes = {name: rng.randint(1, 2) for name in body}
        a7 = (tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
              if t.pendant is not None else ())
        gseed = rng.randrange(1 << 30)
        for _ in range(12 * len(body)):
            spec, g = build(sizes, a7, gseed)
            delta = g.max_degree()
            if delta == target_delta and g.n <= _MAX_VERTICES:
                if not has_clique(g, g.full_mask(), target_delta):
                    return spec
                break
            if delta > target_delta or g.n > _MAX_VERTICES:
                break
            slots = list(body) + [("a7", i) for i in range(len(a7))]
            pick = rng.choice(slots)
            if isinstance(pick, tuple):
                grown = list(a7)
                grown[pick[1]] += 1
                if grown[pick[1]] > hi:
                    continue
                trial_sizes, trial_a7 = sizes, tuple(grown)
            else:
                if sizes[pick] + 1 > hi:
                    continue
                trial_sizes = {**sizes, pick: sizes[pick] + 1}
                trial_a7 = a7
            _, g2 = build(trial_sizes, trial_a7, gseed)
            if g2.max_degree() <= target_delta and g2.n <= _MAX_VERTICES:
                sizes, a7 = trial_sizes, trial_a7
    raise PentagemError(
        f"no {class_id} member with maximum degree {target_delta} found "
        f"in {_MAX_RESTARTS} restarts")
