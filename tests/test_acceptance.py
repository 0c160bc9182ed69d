"""Acceptance suite: one test per criterion, each ending in a printed
pass line.  Every comparison is exact; there are no tolerances anywhere."""

import hashlib
import json
import time
from fractions import Fraction as F

import pytest

from noncrossing.partitions import (
    connected_components,
    enumerate_nc,
    enumerate_ncl,
    enumerate_ncls,
    enumerate_ncs,
    exterior_blocks,
    is_ncs,
    kreweras,
    leq,
    non_minimal_elements,
    validate_ncl,
)
from noncrossing.transforms import (
    MomentSequence,
    CumulantSequence,
    cumulant_via_classes,
    cumulant_via_trees,
    cumulants_to_moments,
    eval_bicolor,
    free_additive,
    free_multiplicative,
    moments_to_cumulants,
    moments_to_tcoeffs,
    ncls_weight,
    t_convolve,
    tcoeffs_to_moments,
    verify_t_multiplicativity,
)
from noncrossing.trees import (
    bicolor_from_ncls,
    connected_from_tree,
    enumerate_bicolor,
    enumerate_bicolor_elementary,
    enumerate_planar_trees,
    ncls_from_bicolor,
    tree_from_connected,
)
from noncrossing.freeness import (
    Letter,
    Scenario,
    Word,
    freeness_vanishing_suite,
    mixed_tcoeff,
    product_moments,
    sum_moments,
)
from noncrossing.verify import (
    catalan_moments,
    seeded_moment_corpus,
    shifted_catalan_moments,
)

from harness import run_child, run_cli
from oracles import brute_ncl, catalan, interleaved_union_ok

CORPUS_SEED = 20240801
NC_COUNTS = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
NCL_COUNTS = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586]
SPLIT_COUNTS = [1, 2, 7, 30, 143]


def _passed(criterion, label):
    print(f"ACCEPTANCE {criterion} ({label}): PASS")


@pytest.fixture(scope="module")
def corpus():
    return seeded_moment_corpus(CORPUS_SEED, 200, 8)


def test_criterion_01_counts():
    start = time.time()
    assert [len(enumerate_nc(n)) for n in range(1, 11)] == NC_COUNTS
    assert [len(enumerate_ncl(n)) for n in range(1, 10)] == NCL_COUNTS
    assert [len(enumerate_planar_trees(n)) for n in range(1, 11)] == [
        catalan(n - 1) for n in range(1, 11)
    ]
    assert [len(enumerate_bicolor_elementary(n)) for n in range(1, 9)] == list(
        range(1, 9)
    )
    assert [len(enumerate_bicolor(n)) for n in range(1, 6)] == SPLIT_COUNTS
    assert [len(enumerate_ncls(n)) for n in range(1, 6)] == SPLIT_COUNTS
    elapsed = time.time() - start
    assert elapsed < 120, f"count tables took {elapsed:.1f}s"
    _passed(1, "counts")


def test_criterion_02_brute_force_equivalence():
    for n in range(1, 6):
        assert set(enumerate_ncl(n)) == brute_ncl(n)
    for n in range(1, 4):
        got = set(enumerate_ncs(n))
        want = {g for g in enumerate_nc(2 * n) if is_ncs(g)}
        assert got == want
    _passed(2, "brute-force equivalence")


def test_criterion_03_kreweras():
    for n in range(1, 9):
        for gamma in enumerate_nc(n):
            assert len(gamma.blocks) + len(kreweras(gamma).blocks) == n + 1
    for n in range(1, 7):
        candidates = enumerate_nc(n)
        for gamma in candidates:
            kr = kreweras(gamma)
            assert interleaved_union_ok(gamma.blocks, kr.blocks, n)
            for other in candidates:
                if interleaved_union_ok(gamma.blocks, other.blocks, n):
                    assert leq(other, kr)
    _passed(3, "Kreweras complement")


def test_criterion_04_bijections():
    for n in range(1, 10):
        trees = enumerate_planar_trees(n)
        partitions = [connected_from_tree(t) for t in trees]
        assert len(set(partitions)) == len(trees)
        for t, pi in zip(trees, partitions):
            assert tree_from_connected(pi) == t
        assert len(partitions) == catalan(n - 1)
        connected = {
            pi for pi in enumerate_ncl(n) if len(connected_components(pi).blocks) == 1
        }
        assert set(partitions) == connected
    for n in range(1, 6):
        members = enumerate_ncls(n)
        images = []
        for pi in members:
            b = bicolor_from_ncls(pi)
            assert ncls_from_bicolor(b) == pi
            images.append(b)
        assert set(images) == set(enumerate_bicolor(n))
        assert len(set(images)) == len(members)
    _passed(4, "tree bijections")


def test_criterion_05_transform_roundtrips(corpus):
    for m in corpus:
        assert cumulants_to_moments(moments_to_cumulants(m)) == m
        t = moments_to_tcoeffs(m)
        assert tcoeffs_to_moments(t) == m
        assert moments_to_tcoeffs(tcoeffs_to_moments(t)) == t
    fix = MomentSequence((1, 2, 5, 14, 42))
    assert moments_to_cumulants(fix).values == (1, 1, 1, 1, 1)
    assert moments_to_tcoeffs(fix).values == (1, 1, 0, 0, 0)
    _passed(5, "transform roundtrips")


def test_criterion_06_cumulants_via_classes(corpus):
    for m in corpus:
        kappa = moments_to_cumulants(m)
        t = moments_to_tcoeffs(m)
        for n in range(1, 8):
            assert cumulant_via_classes(t, n) == kappa.values[n - 1]
    _passed(6, "cumulants from connected linked classes")


def test_criterion_07_cumulants_via_trees(corpus):
    for m in corpus:
        kappa = moments_to_cumulants(m)
        t = moments_to_tcoeffs(m)
        for n in range(1, 8):
            assert cumulant_via_trees(t, n) == kappa.values[n - 1]
    _passed(7, "cumulants from planar tree sums")


def test_criterion_08_bridge_identity(corpus):
    pairs = [
        (catalan_moments(5), shifted_catalan_moments(5)),
        (corpus[0], corpus[1]),
        (corpus[2], corpus[3]),
    ]
    for mx, my in pairs:
        tx = moments_to_tcoeffs(mx)
        ty = moments_to_tcoeffs(my)
        kx = moments_to_cumulants(mx)
        ky = moments_to_cumulants(my)
        for n in range(1, 6):
            total = F(0)
            for pi in enumerate_ncls(n):
                w = ncls_weight(pi, tx, ty)
                assert w == eval_bicolor(bicolor_from_ncls(pi), tx, ty)
                total += w
            assert total == free_multiplicative(kx, ky, n)
    _passed(8, "split-weight bridge")


def test_criterion_09_t_multiplicativity(corpus):
    start = time.time()
    fixture = verify_t_multiplicativity(catalan_moments(6), shifted_catalan_moments(6), 6)
    assert fixture.passed
    t_routed = moments_to_tcoeffs(
        cumulants_to_moments(
            CumulantSequence(
                tuple(
                    free_multiplicative(
                        moments_to_cumulants(catalan_moments(6)),
                        moments_to_cumulants(shifted_catalan_moments(6)),
                        n,
                    )
                    for n in range(1, 7)
                )
            )
        )
    )
    t_conv = t_convolve(
        moments_to_tcoeffs(catalan_moments(6)),
        moments_to_tcoeffs(shifted_catalan_moments(6)),
    )
    assert t_routed.values[:3] == (2, F(5, 2), F(3, 8))
    assert t_conv.values[:3] == (2, F(5, 2), F(3, 8))
    assert t_routed == t_conv
    for mx, my in zip(corpus[0::2], corpus[1::2]):
        report = verify_t_multiplicativity(
            MomentSequence(mx.values[:6]), MomentSequence(my.values[:6]), 6
        )
        assert report.passed
    elapsed = time.time() - start
    assert elapsed < 60, f"multiplicativity suite took {elapsed:.1f}s"
    _passed(9, "t-series multiplicativity")


def test_criterion_10_freeness_layer(corpus):
    scenario = Scenario(
        {
            "X": CumulantSequence(corpus[0].values[:6]),
            "Y": CumulantSequence(corpus[1].values[:6]),
        }
    )
    kx = CumulantSequence(corpus[0].values[:5])
    ky = CumulantSequence(corpus[1].values[:5])
    assert moments_to_cumulants(sum_moments(scenario, "X", "Y", 5)) == free_additive(
        kx, ky
    )
    assert product_moments(scenario, "X", "Y", 5) == cumulants_to_moments(
        CumulantSequence(tuple(free_multiplicative(kx, ky, n) for n in range(1, 6)))
    )
    assert freeness_vanishing_suite(scenario, 6).passed
    for text in ("X Y", "X Y X", "Y X X Y"):
        w = Word.parse(text)
        base = mixed_tcoeff(scenario, w)
        for c in (F(2), F(-1), F(1, 3)):
            scaled = Word((Letter(w.letters[0].algebra, c),) + w.letters[1:])
            assert mixed_tcoeff(scenario, scaled) == c * base
            for pos in range(1, len(w.letters)):
                letters = list(w.letters)
                letters[pos] = Letter(letters[pos].algebra, c)
                assert mixed_tcoeff(scenario, Word(tuple(letters))) == base
    _passed(10, "freeness layer")


def test_criterion_11_paper_fixture():
    pi = validate_ncl(12, [[1, 4, 6, 9], [2, 3], [4, 5], [6, 7, 8], [10, 11], [11, 12]])
    assert connected_components(pi).blocks == ((1, 4, 5, 6, 7, 8, 9), (2, 3), (10, 11, 12))
    assert exterior_blocks(pi) == ((1, 4, 6, 9), (10, 11))
    assert non_minimal_elements(pi) == {3, 5, 7, 8, 9, 12}
    _passed(11, "twelve-point fixture")


def test_criterion_12_cli():
    # children: only they show the python -m entry's exit codes, and equal
    # bytes from processes that each have their own hash seed
    # determinism: identical runs produce identical bytes
    a = run_child("verify", "prop21", "--order", "4", "--seed", "7")
    b = run_child("verify", "prop21", "--order", "4", "--seed", "7")
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0
    e1 = run_child("enumerate", "ncls", "3")
    e2 = run_child("enumerate", "ncls", "3")
    assert e1.stdout == e2.stdout
    assert json.loads(e1.stdout.splitlines()[-1]) == {"count": 7}

    # schema roundtrip through the CLI
    out = run_cli("biject", "lambda", '{"n":6,"blocks":[[1],[3,5],[2,6],[4]]}')
    back = run_cli("biject", "lambda-inv", out.stdout.strip())
    assert json.loads(back.stdout) == {"n": 6, "blocks": [[1], [2, 6], [3, 5], [4]]}

    # exit-code contract
    assert run_child("enumerate", "ncl", "10").returncode == 2
    assert run_child("transform", "m2t", '{"order":2,"coeffs":["0","1"]}').returncode == 3
    assert run_child("biject", "theta", '{"n":3,"blocks":[[1,2],[3]]}').returncode == 4

    # the full verification suite is green on a clean build
    proc = run_child("verify", "all")
    assert proc.returncode == 0, proc.stdout[-2000:]
    data = json.loads(proc.stdout)
    assert data["pass"] is True
    # and prints these exact bytes (seed 7, json); a change must be deliberate
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "6a5357c1b5b7ab81a522e3988baeeab2dba6ee3497f0a10711e22fca01b4353a"
    )
    _passed(12, "command-line contract")
