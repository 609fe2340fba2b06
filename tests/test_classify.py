import hashlib
import importlib
import random
from collections import Counter

import pytest

from pentagem.classify import classify
from pentagem.errors import ForbiddenPatternError, PentagemError, PreconditionError
from pentagem.graph import (build_graph, complete_graph, cycle_graph, disjoint_union,
                            is_connected, path_graph)
from pentagem.instances import GenSpec, gallery_g1, gen_class_instance, gen_target_delta
from pentagem.oracle import exact_chromatic
from pentagem.patterns import clique_number
from pentagem.structure import CLASS_ORDER, TEMPLATES, check_bag_partition

from helpers import (c5_blowup, core9_cores, cycle_blowup, delta9_members, random_graph,
                     reference_classify, reference_match_modules)

CLASSIFY = importlib.import_module("pentagem.classify")


def test_c5_is_identity_g1():
    label = classify(cycle_graph(5))
    assert label.kind == "G1"
    assert sorted(len(b) for b in label.bags.values()) == [1, 1, 1, 1, 1]


def test_k9_is_perfect():
    assert classify(complete_graph(9)).kind == "Perfect"


def test_gallery_g1_is_g1_with_triangle_bags():
    label = classify(gallery_g1())
    assert label.kind == "G1"
    assert sorted(len(b) for b in label.bags.values()) == [3, 3, 3, 3, 3]
    assert not check_bag_partition(gallery_g1(), TEMPLATES["G1"], label.bags)


def test_rejects_p5():
    with pytest.raises(ForbiddenPatternError):
        classify(path_graph(5))


def test_rejects_disconnected():
    with pytest.raises(PreconditionError):
        classify(disjoint_union(cycle_graph(5), cycle_graph(5)))


@pytest.mark.parametrize("cid", sorted(TEMPLATES))
@pytest.mark.parametrize("mode", ["clique", "cograph"])
def test_round_trip_over_generators(cid, mode):
    # classify never returns None (raises) on generated members; the label
    # need not equal the generating class (classes overlap), but its bags
    # must satisfy the independent checker.
    for seed in (3, 11):
        spec = gen_target_delta(cid, 9, seed=seed, mode=mode)
        g, _ = gen_class_instance(spec)
        label = classify(g)
        assert label.kind != "Perfect"
        assert not check_bag_partition(g, TEMPLATES[label.kind], label.bags)


@pytest.mark.parametrize("mode", ["clique", "cograph"])
def test_g8_members_classify_as_g6(mode):
    # G8 is G6 with Q6 and Q8 swapped, and G6 comes first in the order
    for seed in range(10):
        spec = gen_target_delta("G8", 9, seed=seed, mode=mode)
        g, _ = gen_class_instance(spec)
        label = classify(g)
        assert label.kind == "G6", spec
        assert not check_bag_partition(g, TEMPLATES["G6"], label.bags)


def test_labels_match_the_matcher_that_searches_every_template(monkeypatch):
    # the kind and the bags, in order, on every criterion-2 member, G8
    # members (labelled G6) and the cores solve classifies on core9
    g8 = [gen_class_instance(gen_target_delta("G8", 9, seed=seed, mode=mode))[0]
          for seed in range(10) for mode in ("clique", "cograph")]
    kinds = Counter()
    for g in delta9_members(506) + g8 + core9_cores(7):
        got = classify(g)
        with monkeypatch.context() as m:
            m.setattr(CLASSIFY, "match_expansion", reference_match_modules)
            want = classify(g)
        assert got.kind == want.kind and list(got.bags.items()) == list(want.bags.items())
        kinds[got.kind] += 1
    assert set(kinds) == set(CLASS_ORDER) and kinds["G10"] >= 40, kinds


def test_perfect_label_means_chi_equals_omega():
    # spot-check of the structure-theorem license on small instances
    from pentagem.patterns import find_induced, is_p5_gem_free
    checked = 0
    for seed in range(400):
        g = random_graph(random.Random(seed).randint(4, 12), 0.55, seed)
        if not is_connected(g) or not is_p5_gem_free(g)[0]:
            continue
        label = classify(g)
        if label.kind != "Perfect":
            continue
        assert find_induced(g, "C5") is None
        chi, _ = exact_chromatic(g)
        assert chi == clique_number(g)[0]
        checked += 1
    assert checked >= 40


def perturbed_g6_members():
    """G6 members with one random pair flipped, those left connected."""
    for seed in range(60):
        spec = gen_target_delta("G6", 9, seed=seed + 1)
        g, _ = gen_class_instance(spec)
        rng = random.Random(seed)
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        if u == v:
            continue
        edges = set(map(tuple, map(sorted, g.edges())))
        pair = tuple(sorted((u, v)))
        edges = edges - {pair} if pair in edges else edges | {pair}
        h = build_graph(g.n, sorted(edges))
        if is_connected(h):
            yield h


def test_classify_is_robust_under_edge_perturbation():
    # flipping one random pair either reclassifies cleanly or reports the
    # forbidden induced pattern; bags, when returned, always check out
    ok = 0
    for h in perturbed_g6_members():
        try:
            label = classify(h)
        except ForbiddenPatternError as err:
            assert err.witness.check(h)
            ok += 1
            continue
        if label.bags is not None:
            assert not check_bag_partition(h, TEMPLATES[label.kind], label.bags)
        ok += 1
    assert ok >= 50


def outcome(classify_fn, g):
    """The label's kind and bags in order, or the error's type, message and
    witness."""
    try:
        label = classify_fn(g)
    except PentagemError as err:
        return type(err), str(err), getattr(err, "witness", None)
    return label.kind, label.bags and list(label.bags.items())


def test_classify_equals_the_search_over_maximal_modules():
    members = [gen_class_instance(gen_target_delta(cid, target, seed=seed, mode=mode))[0]
               for cid in TEMPLATES for target in (9, 10) for mode in ("clique", "cograph")
               for seed in range(6)]
    g8 = [gen_class_instance(gen_target_delta("G8", 9, seed=seed, mode=mode))[0]
          for seed in range(10) for mode in ("clique", "cograph")]
    blowups = [c5_blowup(a) for a in (1, 2, 3, 50)] + [cycle_blowup(7, a) for a in (1, 2, 3)]
    randoms = [g for seed in range(300)
               if is_connected(g := random_graph(random.Random(seed).randint(4, 12), 0.55, seed))]
    corpus = (delta9_members(506) + g8 + core9_cores(7) + core9_cores(11) + members
              + blowups + list(perturbed_g6_members()) + randoms)
    kinds = Counter()
    for g in corpus:
        got = outcome(classify, g)
        assert got == outcome(reference_classify, g), g.adj
        kinds[got[0]] += 1
    assert set(CLASS_ORDER) | {"Perfect", ForbiddenPatternError} <= set(kinds), kinds


def test_only_cograph_bags_and_h_reach_the_module_search(monkeypatch):
    calls = []
    real = CLASSIFY.maximal_modules
    monkeypatch.setattr(CLASSIFY, "maximal_modules", lambda g: calls.append(g) or real(g))
    assert len(core9_cores(7)) == 44 and not calls
    for cid, mode in (("G1", "cograph"), ("H", "clique")):
        g = gen_class_instance(gen_target_delta(cid, 9, seed=0, mode=mode))[0]
        assert classify(g).kind == cid and calls[-1] is g


# sha256 over classify's kind and sorted bags for generated members of every
# class (G8 included), Delta 9 and 10, both bag modes, seeds 0..5; recorded
# while G8 was still tried between G7 and G9
CLASSIFY_SHA256 = "9017d1c8868deeda456b935c5de77100627c22173eee9dfc46d15b3c464ba97b"


def test_classify_labels_are_pinned():
    digest = hashlib.sha256()
    members = 0
    for cid in TEMPLATES:
        for target in (9, 10):
            for mode in ("clique", "cograph"):
                for seed in range(6):
                    spec = gen_target_delta(cid, target, seed=seed, mode=mode)
                    label = classify(gen_class_instance(spec)[0])
                    members += cid == "G8"
                    digest.update(repr((label.kind, sorted(label.bags.items()))).encode())
    assert members == 24
    assert digest.hexdigest() == CLASSIFY_SHA256
