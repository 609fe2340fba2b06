"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines as
they appear; they are also shown in failure output.  Criterion 6 measures
the published elimination orders, reversed into coloring orders by
``published_plan``, on two populations per branch: every degree-9 clique
expansion the case strategy hands to that branch (at least 20 each), and
the loop-irreducible members, of which there are only 11 in total (one for
the second class, ten for the tenth).
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from pentagem.coloring import Coloring, back_degree_profile, verify_coloring
from pentagem.errors import PentagemError
from pentagem.graph import (complete_graph, cycle_graph, disjoint_union, induced_subgraph, join,
                            mask_of)
from pentagem.instances import (GenSpec, gallery_g1, gallery_g2,
                                gen_class_instance, gen_target_delta)
from pentagem.oracle import exact_chromatic
from pentagem.patterns import clique_number, find_induced
from pentagem.reductions import extend_list_coloring, find_d1_catalog
from pentagem.solver import replay_trace, solve
from pentagem.strategies import CASE_STRATEGIES, apply_case_strategy, published_plan
from pentagem.structure import TEMPLATES, clique_reduce, lift_coloring

from helpers import (brute_chromatic, brute_d1_catalog_present,
                     brute_find_induced, delta_family, random_graph,
                     reference_is_k3_join_3k2, reference_is_k4_join_two_nonedges)
from irreducible_enum import degree9_members, irreducible_members

ALL_CLASSES = ("G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8", "G9", "G10", "H")


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {detail}")


# -- criterion 1: gallery sharpness --------------------------------------------

def test_criterion_1_gallery_sharpness():
    t0 = time.perf_counter()
    g1 = gallery_g1()
    chi1, _ = exact_chromatic(g1)
    t1 = time.perf_counter() - t0
    got1 = (g1.max_degree(), clique_number(g1)[0], chi1)

    t0 = time.perf_counter()
    g2 = gallery_g2(9)
    chi2, _ = exact_chromatic(g2)
    t2 = time.perf_counter() - t0
    got2 = (g2.max_degree(), clique_number(g2)[0], chi2)

    ok = got1 == (8, 6, 8) and got2 == (9, 7, 8) and t1 < 30 and t2 < 5
    verdict(1, ok, f"g1 (Delta,omega,chi)={got1} in {t1:.2f}s; "
                   f"g2(9)={got2} in {t2:.2f}s")
    assert got1 == (8, 6, 8)
    assert got2 == (9, 7, 8)
    assert t1 < 30 and t2 < 5


# -- criteria 2 and 9 share the instance suite -----------------------------------

@pytest.fixture(scope="module")
def main_suite():
    results = []
    seed = 0
    while len(results) < 506:
        for mode in ("clique", "cograph"):
            for cid in ALL_CLASSES:
                try:
                    spec = gen_target_delta(cid, 9, seed=seed * 37 + 11, mode=mode)
                except PentagemError:
                    continue
                g, _ = gen_class_instance(spec)
                t0 = time.perf_counter()
                col, trace = solve(g)
                dt = time.perf_counter() - t0
                results.append((g, col, trace, dt))
        seed += 1
    return results


def test_criterion_2_main_theorem_suite(main_suite):
    n = len(main_suite)
    bad = sum(not (verify_coloring(g, col) and col.k <= 8 and g.n <= 40)
              for g, col, _, _ in main_suite)
    med = statistics.median(dt for _, _, _, dt in main_suite)
    lemma1 = [e for _, _, trace, _ in main_suite for e in trace.events
              if e.kind == "lemma1"]
    fallbacks = sum(e.data["fallback"] for e in lemma1)
    ok = n >= 500 and bad == 0 and med < 1.0 and fallbacks == 0
    verdict(2, ok, f"{n} instances across 11 classes, {bad} failures, "
                   f"median solve {med * 1000:.1f} ms, {len(lemma1)} strategy "
                   f"cores, {fallbacks} order fallbacks")
    assert n >= 500 and bad == 0
    assert med < 1.0
    assert fallbacks == 0


def test_criterion_9_trace_replay(main_suite):
    bad = 0
    for g, col, trace, _ in main_suite:
        rep = replay_trace(g, trace)
        if not (verify_coloring(g, rep) and rep.k == col.k
                and rep.colors == col.colors):
            bad += 1
    ok = bad == 0
    verdict(9, ok, f"replayed {len(main_suite)} traces, {bad} mismatches")
    assert bad == 0


# -- criterion 3: degree reduction ------------------------------------------------

def test_criterion_3_delta_reduction():
    instances = delta_family()
    bad = 0
    for g in instances:
        delta = g.max_degree()
        col, _ = solve(g)
        if not (verify_coloring(g, col) and col.k <= delta - 1
                and len(set(col.colors.values())) <= delta - 1):
            bad += 1
    ok = len(instances) >= 50 and bad == 0
    verdict(3, ok, f"{len(instances)} instances with Delta in 10..12 "
                   f"(gallery family included), {bad} failures")
    assert len(instances) >= 50 and bad == 0


# -- criterion 4: oracle equivalence ------------------------------------------------

def test_criterion_4_oracle_equivalence():
    bad = 0
    for seed in range(200):
        rng = random.Random(seed)
        g = random_graph(rng.randint(1, 10), rng.uniform(0.15, 0.85), seed * 3 + 1)
        chi, col = exact_chromatic(g)
        if chi != brute_chromatic(g) or not verify_coloring(g, col):
            bad += 1
    ok = bad == 0
    verdict(4, ok, f"200 random graphs (n <= 10) against exhaustive search, "
                   f"{bad} mismatches")
    assert bad == 0


# -- criterion 5: clique-expansion reduction preserves both invariants ---------------

def test_criterion_5_reduction_preservation():
    checked = bad = 0
    for seed in range(90):
        for cid in ("G1", "G2", "G3", "H"):
            t = TEMPLATES[cid]
            body = [n for n in t.nodes if n != t.pendant]
            rng = random.Random(seed * 211 + len(cid))
            sizes = {n: rng.randint(1, 3) for n in body}
            a7 = (rng.randint(1, 3),) if t.pendant else ()
            g, bags = gen_class_instance(GenSpec(cid, sizes, a7, "cograph", seed))
            if g.n > 18:
                continue
            red = clique_reduce(g, t, bags)
            gstar, ids = induced_subgraph(g, red.kept)
            chi_g, _ = exact_chromatic(g)
            chi_s, star = exact_chromatic(gstar)
            lifted = lift_coloring(g, red, {ids[i]: c for i, c in star.colors.items()})
            good = (clique_number(g)[0] == clique_number(gstar)[0]
                    and chi_g == chi_s
                    and verify_coloring(g, Coloring(lifted, chi_s)))
            checked += 1
            bad += not good
            if checked >= 120:
                break
        if checked >= 120:
            break
    ok = checked >= 100 and bad == 0
    verdict(5, ok, f"{checked} cograph expansions (n <= 18): omega and chi "
                   f"preserved, lifts verified, {bad} failures")
    assert checked >= 100 and bad == 0


# -- criterion 6: published-order degeneracy ------------------------------------------

BRANCHES = [("G2", "two_sets", 5), ("G2", "one_set", 6), ("G3", "main", 5),
            ("G4", "main", 5), ("G6", "main", 5), ("G7", "main", 5),
            ("G8", "main", 5), ("G9", "main", 5), ("G10", "main", 5),
            ("H", "anchor_two", 5)]


def _branch_of(cid: str, sizes: dict[str, int]) -> str | None:
    """The branch the strategy table routes these bag sizes to, if any."""
    branch = CASE_STRATEGIES[cid].branch_for(sizes)
    return branch and branch.name


def _served_by(cid: str, branch: str):
    """Bag-size filter for the members ``apply_case_strategy`` hands to the
    branch's ``_lemma1``: strict copycat pairs, the branch's size condition,
    and for H both A2 and A5 larger than the clique bag A6 (otherwise the
    ``clique_copy`` rule takes the member)."""
    copycat = CASE_STRATEGIES[cid].copycat

    def keep(sizes: dict[str, int]) -> bool:
        if any(sizes[big] <= sizes[small] for big, small in copycat):
            return False
        if cid == "H" and min(sizes["A2"], sizes["A5"]) <= sizes["A6"]:
            return False
        return _branch_of(cid, sizes) == branch
    return keep


def _published_back_degree(cid: str, branch: str, g, bags) -> int:
    sets, order = published_plan(cid, branch, bags)
    removed = set().union(*map(set, sets))
    rest = sorted(v for v in range(g.n) if v not in removed)
    sub, ids = induced_subgraph(g, rest)
    pos = {v: i for i, v in enumerate(ids)}
    return back_degree_profile(sub, [pos[v] for v in order])


def _routed_branch(cid: str, g, bags) -> str | None:
    """The branch whose ``_lemma1`` colors this member, or None."""
    def recurse(sub, ids):
        col, _ = solve(sub)
        return {ids[i]: c for i, c in col.colors.items()}

    events = []
    apply_case_strategy(g, cid, bags, recurse=recurse, trace=events)
    if events and events[0].kind == "lemma1" and events[0].data["case"] == cid:
        return events[0].data["branch"]
    return None


def test_criterion_6_published_order_degeneracy():
    irreducible = {cid: irreducible_members(cid) for cid in ALL_CLASSES}
    lines = []
    all_ok = True
    census = 0
    reached = {}  # the branches that color an irreducible member
    for cid, branch, bound in BRANCHES:
        keep = _served_by(cid, branch)
        served = degree9_members(cid, keep)
        misrouted = sum(_routed_branch(cid, g, bags) != branch for _, g, bags in served)
        degrees = [_published_back_degree(cid, branch, g, bags) for _, g, bags in served]
        violations = sum(d > bound for d in degrees)
        hard = [_published_back_degree(cid, branch, g, bags)
                for _, g, bags in irreducible[cid]
                if keep({k: len(v) for k, v in bags.items()})]
        hard_violations = sum(d > bound for d in hard)
        census += len(hard)
        if hard:
            reached[cid, branch] = len(hard)
        ok = (len(served) >= 20 and violations == 0 and misrouted == 0
              and hard_violations == 0)
        all_ok = all_ok and ok
        note = (f"{cid}/{branch}: {len(served)} served instances "
                f"(worst back-degree {max(degrees, default=0)}), {violations} "
                f"violations of bound {bound}, {misrouted} misrouted; "
                f"{len(hard)} irreducible instances, {hard_violations} violations")
        lines.append(note)
    total = sum(map(len, irreducible.values()))
    all_ok = all_ok and census == total
    verdict(6, all_ok, "; ".join(lines) + f"; irreducible census {census} of {total}")
    assert census == total, "an irreducible member is served by no published branch"
    # beside the Perfect branch, the only branches a core left by solve's
    # reductions can reach
    assert reached == {("G2", "one_set"): 1, ("G10", "main"): 10}, reached
    assert all_ok, "a published order misses its bound or a branch is underpopulated"


# -- criterion 7: list-extension sampling ----------------------------------------------

def test_criterion_7_d1_extension_sampling():
    t0 = time.perf_counter()
    rng = random.Random(20260808)
    three_k2 = disjoint_union(disjoint_union(complete_graph(2), complete_graph(2)),
                              complete_graph(2))
    k3_shape = join(complete_graph(3), three_k2)
    c4_subgraph_edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    failures = 0
    for _ in range(10_000):
        lists = {v: frozenset(rng.sample(range(1, 9), k3_shape.degree(v) - 1))
                 for v in range(9)}
        got = extend_list_coloring(k3_shape, {v: mask_of(l) for v, l in lists.items()})
        if not (all(got[v] in lists[v] for v in got)
                and verify_coloring(k3_shape, Coloring(got, 8))):
            failures += 1
    for _ in range(10_000):
        # random partner: any spanning subgraph of the 4-cycle keeps the
        # two disjoint non-edges the catalog shape requires
        keep = [e for e in c4_subgraph_edges if rng.random() < 0.5]
        from pentagem.graph import build_graph
        h = join(complete_graph(4), build_graph(4, keep))
        lists = {v: frozenset(rng.sample(range(1, 9), h.degree(v) - 1))
                 for v in range(8)}
        got = extend_list_coloring(h, {v: mask_of(l) for v, l in lists.items()})
        if not (all(got[v] in lists[v] for v in got)
                and verify_coloring(h, Coloring(got, 8))):
            failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 60
    verdict(7, ok, f"2 x 10^4 minimum-size list assignments, {failures} failures, "
                   f"{dt:.1f}s")
    assert failures == 0 and dt < 60


# -- criterion 8: detection differential --------------------------------------------------

def test_criterion_8_detection_differential():
    bad = 0
    for seed in range(500):
        rng = random.Random(seed)
        g = random_graph(rng.randint(1, 9), rng.uniform(0.2, 0.85), seed * 7 + 5)
        for pattern in ("P5", "GEM", "C5"):
            mine = find_induced(g, pattern)
            brute = brute_find_induced(g, pattern)
            if (mine is None) != (brute is None):
                bad += 1
            elif mine is not None and (mine.vertices != brute or not mine.check(g)):
                bad += 1
        found = find_d1_catalog(g)
        present = brute_d1_catalog_present(g)
        if (found is not None) != present:
            bad += 1
        elif found is not None:
            if not (reference_is_k3_join_3k2(g, found)
                    or reference_is_k4_join_two_nonedges(g, found)):
                bad += 1
    ok = bad == 0
    verdict(8, ok, f"500 random graphs (n <= 9): witnesses match brute-force "
                   f"enumeration, {bad} disagreements")
    assert bad == 0
