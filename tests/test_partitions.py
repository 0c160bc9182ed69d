import gc
import random
import time
import tracemalloc
from collections import Counter
from functools import cache, lru_cache
from itertools import chain, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncrossing import jsonio, partitions, transforms, trees, verify
from noncrossing.errors import (
    BadLink,
    BlockStraddlesSet,
    Crossing,
    LimitExceeded,
    NonCrossingError,
    NotACover,
    NotAPartition,
    OddGroundSet,
    SizeMismatch,
)
from noncrossing.partitions import (
    NCLPartition,
    NCPartition,
    class_members,
    connected_components,
    enumerate_nc,
    enumerate_ncl,
    enumerate_ncls,
    enumerate_ncs,
    exterior_blocks,
    is_ncls,
    is_ncs,
    iter_blocks,
    iter_nc,
    iter_ncl,
    kreweras,
    leq,
    non_minimal_elements,
    restrict,
    validate_nc,
    validate_ncl,
)

from oracles import (
    block_class_by_relabel,
    brute_nc_blocklists,
    brute_ncl,
    catalan,
    class_members_by_relabel,
    components_by_union_find,
    exterior_by_pairs,
    interleaved_compatible_by_validation,
    interleaved_union_ok,
    is_ncls_by_components,
    is_ncs_by_kreweras,
    kreweras_by_search,
    kreweras_by_union_find,
    nc_by_first_block_size,
    nc_error_by_pairs,
    ncl_by_classes,
    ncl_error_by_pairs,
    ncls_by_classes,
    validate_nc_by_passes,
    validate_ncl_by_passes,
)

EXAMPLE_12 = [[1, 4, 6, 9], [2, 3], [4, 5], [6, 7, 8], [10, 11], [11, 12]]


def ncl(n, blocks):
    return validate_ncl(n, blocks)


# ---------------------------------------------------------------------------
# validation


def test_validate_nc_small():
    p = validate_nc(3, [[1, 2], [3]])
    assert p.blocks == ((1, 2), (3,))


def test_validate_nc_crossing_witness():
    with pytest.raises(Crossing) as exc:
        validate_nc(4, [[1, 3], [2, 4]])
    assert exc.value.witness == (1, 2, 3, 4)


def test_validate_nc_ten_point_fixture():
    p = validate_nc(10, [[1, 4, 6], [2, 3], [5], [7, 8], [9, 10]])
    assert len(p.blocks) == 5


def test_validate_nc_rejects_overlap_and_gaps():
    with pytest.raises(NotAPartition):
        validate_nc(2, [[1, 2], [2]])
    with pytest.raises(NotAPartition):
        validate_nc(3, [[1, 2]])


def test_validate_ncl_paper_example():
    p = ncl(12, EXAMPLE_12)
    assert p.blocks == ((1, 4, 6, 9), (2, 3), (4, 5), (6, 7, 8), (10, 11), (11, 12))


def test_validate_ncl_bad_links():
    with pytest.raises(BadLink):
        ncl(2, [[1, 2], [1, 2]])  # intersection of size two
    with pytest.raises(BadLink):
        ncl(3, [[1, 2], [2], [3]])  # singleton sharing its element
    with pytest.raises(BadLink):
        ncl(4, [[1, 4], [2, 4], [3]])  # 4 minimal in neither block
    with pytest.raises(NotACover):
        ncl(3, [[1, 2]])


@pytest.mark.parametrize("validate, exc", [(validate_nc, NotAPartition), (validate_ncl, NotACover)])
def test_uncovered_message_names_count_and_smallest(validate, exc):
    # the cover check counts; it neither builds 1..n nor lists every gap
    with pytest.raises(exc) as err:
        validate(10**6, [[1]])
    assert len(str(err.value)) < 200
    assert "999999 of the elements" in str(err.value)
    with pytest.raises(exc, match="2 of the elements 1..5 are not covered, the smallest is 3"):
        validate(5, [[1], [2], [4]])


def test_validate_ncl_crossing():
    with pytest.raises(Crossing):
        ncl(4, [[1, 3], [2, 4]])


def test_canonical_order_input_insensitive():
    a = ncl(4, [[2, 3], [1, 4]])
    b = ncl(4, [[1, 4], [3, 2]])
    assert a == b


def _random_block_lists(seed: int, count: int):
    """Raw block lists of three kinds: arbitrary subsets, set partitions
    (mostly crossing), and linked partitions with one element added to a
    block, and sometimes taken from the others."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        kind = rng.randrange(3)
        if kind == 0:
            blocks = [rng.sample(range(1, n + 1), rng.randint(1, min(n, 4)))
                      for _ in range(rng.randint(1, 4))]
        elif kind == 1:
            n, k = rng.randint(4, 8), rng.randint(2, 3)
            labels = [rng.randrange(k) for _ in range(n)]
            blocks = [[e for e, lab in enumerate(labels, 1) if lab == b] for b in set(labels)]
        else:
            blocks = [list(b) for b in rng.choice(enumerate_ncl(n)).blocks]
            e = rng.randint(1, n)
            target = rng.choice(blocks)
            if rng.random() < 0.5:
                for blk in blocks:
                    if e in blk and len(blk) > 1:
                        blk.remove(e)
            if e not in target:
                target.append(e)
        rng.shuffle(blocks)
        # now and then a ground set one short, so a block leaves it
        yield (n - 1 if rng.random() < 0.05 else n), blocks


def _is_crossing_witness(w, blocks) -> bool:
    i, k, p, q = w
    return i < k < p < q and any({i, p} <= set(a) and {k, q} <= set(b)
                                 for a, b in permutations(blocks, 2))


@pytest.mark.parametrize("validate, oracle, outcomes", [
    (validate_nc, nc_error_by_pairs, {None, NotAPartition, Crossing}),
    (validate_ncl, ncl_error_by_pairs, {None, NotACover, BadLink, Crossing}),
])
def test_validators_agree_with_pairwise_rules(validate, oracle, outcomes):
    # the scan raises what the rules checked over every pair of blocks raise,
    # and each crossing it reports is one
    seen = Counter()
    for n, blocks in _random_block_lists(seed=11, count=6000):
        try:
            validate(n, blocks)
            got = None
        except NonCrossingError as exc:
            got = type(exc)
            if got is Crossing:
                assert _is_crossing_witness(exc.witness, blocks), (n, blocks, exc.witness)
        assert got is oracle(n, blocks), (n, blocks)
        seen[got] += 1
    assert set(seen) == outcomes and min(seen.values()) >= 100, seen


def test_validation_time_is_linear_in_block_size():
    # a search over element quadruples took 32 s on two 200-element blocks
    side_by_side = [list(range(1, 2001)), list(range(2001, 4001))]
    interleaved = [list(range(1, 4001, 2)), list(range(2, 4001, 2))]
    singletons = [[e] for e in range(1, 4001)]
    start = time.perf_counter()
    for validate in (validate_nc, validate_ncl):
        validate(4000, side_by_side)
        validate(4000, singletons)
        with pytest.raises(Crossing):
            validate(4000, interleaved)
    assert time.perf_counter() - start < 1


def _faulty_block_lists(seed: int, count: int):
    """Members of NC(n) or NCL(n) with one to three faults put in, so that
    several faults meet in one input: an empty block, a repeated element,
    an element out of range or zero, a duplicate block, an element added
    or removed, a block dropped.  Every block is shuffled within itself."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        family = enumerate_ncl(n) if rng.random() < 0.5 else enumerate_nc(n)
        blocks = [list(b) for b in rng.choice(family).blocks]
        for _ in range(rng.randint(1, 3)):
            blk = rng.choice(blocks) if blocks else []
            fault = rng.randrange(7)
            if fault == 0:
                blocks.insert(rng.randint(0, len(blocks)), [])
            elif fault == 1 and blk:
                blk.append(rng.choice(blk))
            elif fault == 2:
                blk.append(rng.choice([0, -1, n + 1, 10**9]))
            elif fault == 3:
                blocks.append(list(blk))
            elif fault == 4:
                blk.append(rng.randint(1, n))
            elif fault == 5 and len(blk) > 1:
                blk.remove(rng.choice(blk))
            elif fault == 6 and blocks:
                blocks.remove(blk)
        for blk in blocks:
            rng.shuffle(blk)
        rng.shuffle(blocks)
        yield n, blocks


def _outcome(validate, n, blocks):
    """What validating gives: no error class and the canonical blocks, or
    the error's class, message and crossing witness."""
    try:
        return None, validate(n, blocks).blocks, None
    except NonCrossingError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


@pytest.mark.parametrize("validate, passes, outcomes", [
    (validate_nc, validate_nc_by_passes, {None, NotAPartition, Crossing}),
    (validate_ncl, validate_ncl_by_passes, {None, NotACover, BadLink, Crossing}),
])
def test_one_scan_matches_the_four_passes(validate, passes, outcomes):
    # same class, same message and the same crossing witness as cleaning,
    # indexing, covering and scanning one after another
    seen = Counter()
    lists = chain(_random_block_lists(seed=23, count=10000),
                  _faulty_block_lists(seed=29, count=10000))
    for n, blocks in lists:
        got = _outcome(validate, n, blocks)
        assert got == _outcome(passes, n, blocks), (n, blocks)
        seen[got[0]] += 1
    assert set(seen) == outcomes and min(seen.values()) >= 100, seen


def test_one_scan_accepts_every_member_in_reverse_order():
    # each block and the block list reversed: the canonical member comes back
    for validate, members, top in ((validate_nc, iter_nc, 10), (validate_ncl, iter_ncl, 9)):
        for n in range(1, top + 1):
            for pi in members(n):
                assert validate(n, [b[::-1] for b in reversed(pi.blocks)]) == pi


@pytest.mark.parametrize("blocks", [[[1]], [[1, 10**9]]], ids=["one", "ends"])
@pytest.mark.parametrize("call, exc", [
    (validate_nc, NotAPartition),
    (validate_ncl, NotACover),
    (lambda n, blocks: jsonio.parse_ncl({"n": n, "blocks": blocks}), NotACover),
], ids=["nc", "ncl", "parse"])
def test_validation_allocates_nothing_of_size_n_before_a_cover(call, exc, blocks):
    # a billion-point ground set that the blocks cannot cover is refused by
    # the count, before any position array exists
    n = 10**9
    message = (f"{n - len(blocks[0])} of the elements 1..{n} are not covered, "
               "the smallest is 2")
    start = time.perf_counter()
    with pytest.raises(exc) as err:
        call(n, blocks)
    assert time.perf_counter() - start < 0.1
    assert str(err.value) == message
    tracemalloc.start()
    try:
        with pytest.raises(exc):
            call(n, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# enumeration vs brute force


def test_enumerate_nc_n1():
    assert [p.blocks for p in enumerate_nc(1)] == [((1,),)]


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_nc_counts(n):
    assert len(enumerate_nc(n)) == catalan(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerate_nc_matches_brute_filter(n):
    got = {p.blocks for p in enumerate_nc(n)}
    assert got == set(brute_nc_blocklists(n))


def test_enumerate_nc_sorted_and_unique():
    families = [enumerate_nc(n) for n in range(1, 11)]
    families += [enumerate_ncl(n) for n in range(1, 10)]
    for family in families:
        seq = [p.blocks for p in family]
        assert seq == sorted(seq)
        assert len(seq) == len(set(seq))


@pytest.mark.parametrize("n", range(1, 11))
def test_enumerate_nc_equals_first_block_size_route(n):
    assert enumerate_nc(n) == nc_by_first_block_size(n)


@pytest.fixture
def fresh_caches(monkeypatch):
    # every memoised function of the module starts empty; the originals,
    # caches intact, come back when the test ends
    for name, fn in list(vars(partitions).items()):
        if hasattr(fn, "cache_clear"):
            fresh = lru_cache(maxsize=fn.cache_parameters()["maxsize"])(fn.__wrapped__)
            monkeypatch.setattr(partitions, name, fresh)


def test_enumerate_ncl_needs_no_planar_trees(fresh_caches, monkeypatch):
    # the linked partition count must not rest on the tree bijection θ
    def refuse(*args, **kwargs):
        raise AssertionError("NCL(n) was built through planar trees")

    monkeypatch.setattr(trees, "enumerate_planar_trees", refuse)
    monkeypatch.setattr(trees, "connected_from_tree", refuse)
    for n in range(1, 8):
        assert set(enumerate_ncl(n)) == brute_ncl(n)


def test_linked_families_need_no_planar_trees(fresh_caches, monkeypatch):
    # the classes behind NCLS(n) and the prop21 class sums must not rest on
    # θ, so that prop21 shares no enumeration with the eq5 tree sums
    classes = {g: class_members_by_relabel(g) for n in range(1, 8) for g in enumerate_nc(n)}
    ncls = {n: ncls_by_classes(n) for n in range(1, 6)}

    def refuse(*args, **kwargs):
        raise AssertionError("a linked family was built through planar trees")

    for name in ("enumerate_planar_trees", "connected_from_tree", "vertex_order"):
        monkeypatch.setattr(trees, name, refuse)
    monkeypatch.setattr(transforms, "_class_profile", cache(transforms._class_profile.__wrapped__))
    for gamma, members in classes.items():
        assert list(class_members(gamma)) == members
    for n, family in ncls.items():
        assert enumerate_ncls(n) == family
    t = transforms.moments_to_tcoeffs(verify.catalan_moments(8))
    for n in range(1, 9):
        assert transforms.cumulant_via_classes(t, n) == 1


def test_enumeration_leaves_no_reference_cycles(fresh_caches):
    # everything the recursion allocates is freed or cached by reference
    # counting, so nothing is left for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        for n in range(1, 9):
            enumerate_nc(n)
        for n in range(1, 8):
            enumerate_ncl(n)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_iterators_stream_the_enumerations():
    for n in range(1, 11):
        assert tuple(iter_nc(n)) == enumerate_nc(n)
    for n in range(1, 10):
        assert tuple(iter_ncl(n)) == enumerate_ncl(n)
    for n in range(1, 11):
        assert tuple(iter_blocks(n, False)) == tuple(p.blocks for p in enumerate_nc(n))
    for n in range(1, 10):
        assert tuple(iter_blocks(n, True)) == tuple(p.blocks for p in enumerate_ncl(n))
    # the tuples are still kept
    assert enumerate_nc(7) is enumerate_nc(7)
    assert enumerate_ncl(6) is enumerate_ncl(6)


@pytest.mark.parametrize("members, top, count", [
    (iter_nc, 12, catalan),
    (iter_ncl, 9, lambda n: verify.SCHROEDER[n - 1]),
    (lambda n: iter_blocks(n, False), 12, catalan),
    (lambda n: iter_blocks(n, True), 9, lambda n: verify.SCHROEDER[n - 1]),
], ids=["nc", "ncl", "nc-blocks", "ncl-blocks"])
def test_iterators_keep_nothing_of_the_widest_gap(fresh_caches, monkeypatch, members, top, count):
    # streaming the family of {1..n} caches no interval {2..n}, which would
    # hold all of the family of n - 1 for the life of the process
    asked = set()
    interval = partitions._interval

    def spy(lo, hi, linked):
        asked.add((lo, hi))
        return interval(lo, hi, linked)

    monkeypatch.setattr(partitions, "_interval", spy)
    for n in (*range(2, 8), top):
        assert sum(1 for _ in members(n)) == count(n)
        assert (2, n) not in asked, n


@pytest.mark.parametrize("call, error", [
    (lambda: iter_nc(13), LimitExceeded),
    (lambda: iter_ncl(10), LimitExceeded),
    (lambda: iter_nc(0), ValueError),
    (lambda: iter_ncl(0), ValueError),
    (lambda: iter_nc(5, limit=4), LimitExceeded),
    (lambda: iter_ncl(4, limit=3), LimitExceeded),
    (lambda: iter_blocks(13, False), LimitExceeded),
    (lambda: iter_blocks(10, True), LimitExceeded),
    (lambda: iter_blocks(0, False), ValueError),
    (lambda: iter_blocks(0, True), ValueError),
    (lambda: iter_blocks(5, False, limit=4), LimitExceeded),
    (lambda: iter_blocks(4, True, limit=3), LimitExceeded),
], ids=["nc-cap", "ncl-cap", "nc-zero", "ncl-zero", "nc-limit", "ncl-limit",
        "blocks-nc-cap", "blocks-ncl-cap", "blocks-nc-zero", "blocks-ncl-zero",
        "blocks-nc-limit", "blocks-ncl-limit"])
def test_iterators_check_the_cap_when_called(call, error):
    # the call itself refuses, before any next(): a generator function would not
    with pytest.raises(error):
        call()


def test_counts_suite_builds_no_counted_partition(monkeypatch):
    # the NC and NCL count rows tally block tuples: no partition object is
    # built from the stream.  The split families are kept tuples by design,
    # so they are built first and only the count rows can reach the stream
    for n in range(1, 7):
        enumerate_ncs(n)
    for n in range(1, 6):
        enumerate_ncls(n)

    def refuse(*args, **kwargs):
        raise AssertionError("the counts suite built partitions from the stream")

    monkeypatch.setattr(partitions, "_stream", refuse)
    entries = verify.counts_suite()
    assert entries and all(e.passed for e in entries)


def test_counts_suite_keeps_no_counted_family(fresh_caches):
    # the NC and NCL count rows stream; only NCS(n <= 6) reads NC(n), and
    # what stays behind is the inner intervals of the recursion
    gc.collect()
    tracemalloc.start()
    try:
        entries = verify.counts_suite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(e.passed for e in entries)
    assert partitions._ncl_all.cache_info().currsize == 0
    held = partitions._nc_all.cache_info()
    assert held.currsize == 6
    for n in range(1, 7):
        partitions._nc_all(n)
    assert partitions._nc_all.cache_info().misses == held.misses
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 6), (4, 22), (5, 90)])
def test_enumerate_ncl_matches_brute_force(n, count):
    got = set(enumerate_ncl(n))
    assert len(got) == count
    assert got == brute_ncl(n)


def test_enumerate_ncl_contains_linked_example():
    assert ncl(3, [[1, 2], [2, 3]]) in set(enumerate_ncl(3))


def test_enumerate_limits():
    with pytest.raises(LimitExceeded):
        enumerate_nc(13)
    with pytest.raises(LimitExceeded):
        enumerate_ncl(10)
    assert len(enumerate_ncl(5, limit=5)) == 90
    # a size below 1 is refused whatever the cap
    for n, limit in ((0, None), (-3, None), (-3, -3), (0, 100)):
        with pytest.raises(ValueError, match="at least 1"):
            enumerate_nc(n, limit=limit)


# ---------------------------------------------------------------------------
# order relation


def test_leq_extremes():
    for pi in enumerate_ncl(4):
        bottom = ncl(4, [[1], [2], [3], [4]])
        top = ncl(4, [[1, 2, 3, 4]])
        assert leq(bottom, pi)
        assert leq(pi, top)


def test_leq_examples():
    assert leq(ncl(3, [[1, 2], [2, 3]]), ncl(3, [[1, 2, 3]]))
    assert not leq(ncl(3, [[1, 3], [2]]), ncl(3, [[1, 2], [3]]))


def test_leq_size_mismatch():
    with pytest.raises(SizeMismatch):
        leq(ncl(2, [[1, 2]]), ncl(3, [[1, 2, 3]]))


@pytest.mark.parametrize("n", range(1, 8))
def test_leq_extremes_and_component_coarsening_sweep(n):
    bottom = ncl(n, [[i] for i in range(1, n + 1)])
    top = ncl(n, [list(range(1, n + 1))])
    for pi in enumerate_ncl(n):
        assert leq(bottom, pi)
        assert leq(pi, top)
        comp = connected_components(pi)
        assert leq(pi, NCLPartition(comp.n, comp.blocks))


def test_leq_is_partial_order_small():
    members = enumerate_ncl(4)
    rel = {
        (a, b): leq(a, b) for a in members for b in members
    }
    for a in members:
        assert rel[(a, a)]
    for a in members:
        for b in members:
            if rel[(a, b)] and rel[(b, a)]:
                assert a == b
            if not rel[(a, b)]:
                continue
            for c in members:
                if rel[(b, c)]:
                    assert rel[(a, c)]


# ---------------------------------------------------------------------------
# connectivity, classes


def test_connected_components_paper_example():
    comp = connected_components(ncl(12, EXAMPLE_12))
    assert comp.blocks == ((1, 4, 5, 6, 7, 8, 9), (2, 3), (10, 11, 12))


def test_connected_components_identity_on_nc():
    for gamma in enumerate_nc(5):
        as_linked = NCLPartition(gamma.n, gamma.blocks)
        assert connected_components(as_linked).blocks == gamma.blocks


def test_connected_components_chain():
    assert connected_components(ncl(3, [[1, 2], [2, 3]])).blocks == ((1, 2, 3),)


def test_connected_components_equal_the_union_find():
    # the block-order pass against the union-find over the links (min B, e)
    members = [pi for n in range(1, 9) for pi in enumerate_ncl(n)]
    members += [pi for n in range(1, 6) for pi in enumerate_ncls(n)]
    assert len(members) == 11_062
    for pi in members + [ncl(12, EXAMPLE_12)]:
        assert connected_components(pi) == components_by_union_find(pi), pi


def test_connected_from_tree_is_canonical():
    # preorder numbering gives the blocks in canonical order: the validator,
    # which sorts, returns the same object
    plain = [t for n in range(1, 11) for t in trees.enumerate_planar_trees(n)]
    assert len(plain) == 6_918
    for tree in plain:
        pi = trees.connected_from_tree(tree)
        assert validate_ncl(pi.n, pi.blocks) == pi, tree


def test_class_members_singletons():
    zero = validate_nc(4, [[1], [2], [3], [4]])
    assert class_members(zero) == (ncl(4, [[1], [2], [3], [4]]),)


def test_class_members_full_block():
    got = set(class_members(validate_nc(3, [[1, 2, 3]])))
    assert got == {ncl(3, [[1, 2, 3]]), ncl(3, [[1, 2], [2, 3]])}


def test_class_members_example_six():
    gamma = validate_nc(6, [[1, 3, 5], [2], [4], [6]])
    got = set(class_members(gamma))
    assert got == {
        ncl(6, [[1, 3, 5], [2], [4], [6]]),
        ncl(6, [[1, 3], [3, 5], [2], [4], [6]]),
    }


@pytest.mark.parametrize("n", range(1, 8))
def test_class_members_partition_ncl(n):
    total = []
    for gamma in enumerate_nc(n):
        members = class_members(gamma)
        expected = 1
        for blk in gamma.blocks:
            expected *= catalan(len(blk) - 1)
        assert len(members) == expected
        for pi in members:
            assert connected_components(pi).blocks == gamma.blocks
        total.extend(members)
    assert sorted(total, key=lambda p: p.blocks) == list(enumerate_ncl(n))


def test_class_members_checks_the_cap_before_building(monkeypatch):
    # a block over the cap raises before any block class is relabelled or
    # any member built, even when an earlier block is within the cap
    def refuse(*args):
        raise AssertionError("built before the cap was checked")

    monkeypatch.setattr(partitions, "_block_class", refuse)
    monkeypatch.setattr(partitions, "NCLPartition", refuse)
    gamma = validate_nc(7, [[1], [2, 3, 4, 5], [6, 7]])
    with pytest.raises(LimitExceeded, match="trees is capped at 3"):
        class_members(gamma, limit=3)


def test_class_members_refuses_a_linked_partition(monkeypatch):
    # the blocks of (1,2,4)(2,3) would give the class member
    # (1,2)(2,3)(2,4), which validate_ncl rejects
    def refuse(*args):
        raise AssertionError("built before the partition was checked")

    monkeypatch.setattr(partitions, "_block_class", refuse)
    with pytest.raises(NotAPartition) as err:
        class_members(validate_ncl(4, [[1, 2, 4], [2, 3]]))
    assert str(err.value) == "(1,2,4)(2,3) is not a partition: 2 lies in two blocks"
    monkeypatch.undo()
    # with no links, a linked partition is a partition
    unlinked = class_members(validate_ncl(4, [[1, 3], [2], [4]]))
    assert unlinked == class_members(validate_nc(4, [[1, 3], [2], [4]]))


@pytest.mark.parametrize("k", range(1, 11))
def test_block_class_equals_tree_relabel(k):
    # the block (1..k), and for k <= 8 seeded blocks with gaps between them
    rng = random.Random(140 + k)
    blocks = [tuple(range(1, k + 1))]
    if k <= 8:
        blocks += [tuple(sorted(rng.sample(range(1, 3 * k + 3), k))) for _ in range(6)]
    for blk in blocks:
        got = partitions._block_class(blk)
        assert len(got) == len(set(got)) == catalan(k - 1)
        assert set(got) == set(block_class_by_relabel(blk))
        n = blk[-1]
        rest = tuple((e,) for e in range(1, n + 1) if e not in blk)
        for member in got:
            pi = validate_ncl(n, member + rest)
            assert connected_components(pi).blocks == tuple(sorted((blk,) + rest))


@pytest.mark.parametrize("n", range(1, 10))
def test_enumerate_ncl_equals_class_by_class_route(n):
    assert enumerate_ncl(n) == ncl_by_classes(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_enumerate_ncls_equals_class_by_class_route(n):
    assert enumerate_ncls(n) == ncls_by_classes(n)


# ---------------------------------------------------------------------------
# exterior blocks, non-minimal elements, restriction


def test_exterior_blocks_paper_example():
    assert exterior_blocks(ncl(12, EXAMPLE_12)) == ((1, 4, 6, 9), (10, 11))


def test_exterior_blocks_simple():
    assert exterior_blocks(ncl(4, [[1, 2, 3, 4]])) == ((1, 2, 3, 4),)
    got = exterior_blocks(ncl(6, [[1, 3], [5], [2], [4, 6]]))
    assert got == ((1, 3), (4, 6))


@pytest.mark.parametrize("n", range(1, 9))
def test_exterior_blocks_match_pairwise_rule(n):
    for pi in enumerate_ncl(n):
        assert exterior_blocks(pi) == exterior_by_pairs(pi), pi


def test_non_minimal_elements():
    assert non_minimal_elements(ncl(12, EXAMPLE_12)) == {3, 5, 7, 8, 9, 12}
    assert non_minimal_elements(ncl(3, [[1], [2], [3]])) == set()
    assert non_minimal_elements(ncl(4, [[1, 2, 3, 4]])) == {2, 3, 4}


def test_non_minimal_count_invariant():
    for pi in enumerate_ncl(6):
        assert len(non_minimal_elements(pi)) == pi.n - len(pi.blocks)


def test_restrict_paper_component():
    got = restrict(ncl(12, EXAMPLE_12), (1, 4, 5, 6, 7, 8, 9))
    assert got.blocks == ((1, 2, 4, 7), (2, 3), (4, 5, 6))


def test_restrict_identity_and_singletons():
    pi = ncl(5, [[1, 2], [2, 3], [4], [5]])
    assert restrict(pi, range(1, 6)) == pi
    zero5 = ncl(5, [[1], [2], [3], [4], [5]])
    assert restrict(zero5, (2, 4)).blocks == ((1,), (2,))


def test_refusals_quote_a_head_of_a_long_input():
    # each line quotes the first 40 characters of the input, then its length
    linked = ncl(20_000, [[1, 2], [2, 3], *([e] for e in range(4, 20_001))])
    wide = validate_nc(20_000, [list(range(1, 10_001)), list(range(10_001, 20_001))])
    for call, exc in [
        (lambda: kreweras(linked), NotAPartition),
        (lambda: class_members(linked), NotAPartition),
        (lambda: restrict(wide, range(5_000, 15_001)), BlockStraddlesSet),
        (lambda: restrict(wide, range(0, 20_000)), SizeMismatch),
        (lambda: validate_nc(1, [list(range(1, 100_001))]), NotAPartition),
        (lambda: validate_ncl(9, [[1, *range(1, 100_001)]]), BadLink),
    ]:
        with pytest.raises(exc) as info:
            call()
        assert len(str(info.value)) <= 200 and " characters)" in str(info.value)


def test_restrict_straddle():
    with pytest.raises(BlockStraddlesSet):
        restrict(ncl(3, [[1, 2], [3]]), (2, 3))


@pytest.mark.parametrize("subset, shown", [
    ([1, 1, 2], "[1, 1, 2]"), ({0, 1}, "[0, 1]"), ({3, 4}, "[3, 4]"), (set(), "[]"),
], ids=["repeat", "below", "above", "empty"])
def test_restrict_refuses_what_is_no_set_of_positions(subset, shown):
    pi = validate_nc(3, [[1], [2], [3]])
    with pytest.raises(SizeMismatch) as err:
        restrict(pi, subset)
    assert str(err.value) == f"{shown} is not a nonempty set of positions in 1..3"


def test_restrict_keeps_canonical_order():
    # a monotone relabel keeps canonical blocks canonical: the validator,
    # which sorts, returns the same object
    zero5 = ncl(5, [[1], [2], [3], [4], [5]])
    cases = [(ncl(12, EXAMPLE_12), (1, 4, 5, 6, 7, 8, 9)),
             (ncl(5, [[1, 2], [2, 3], [4], [5]]), range(1, 6)),
             (zero5, (2, 4)),
             (validate_nc(6, [[1, 6], [2, 3], [4, 5]]), (1, 4, 5, 6))]
    for n in range(1, 7):
        for pi in enumerate_ncl(n):
            comps = connected_components(pi).blocks
            cases += [(pi, comp) for comp in comps]
            cases.append((pi, chain.from_iterable(comps[1:]) if len(comps) > 1 else comps[0]))
    for pi, subset in cases:
        got = restrict(pi, subset)
        validate = validate_ncl if isinstance(pi, NCLPartition) else validate_nc
        assert validate(got.n, got.blocks) == got, (pi, subset)


# ---------------------------------------------------------------------------
# Kreweras complement


def test_kreweras_extremes():
    for n in range(1, 7):
        one = validate_nc(n, [list(range(1, n + 1))])
        zero = validate_nc(n, [[i] for i in range(1, n + 1)])
        assert kreweras(one) == zero
        assert kreweras(zero) == one


def test_kreweras_examples():
    assert kreweras(validate_nc(3, [[1, 2], [3]])).blocks == ((1,), (2, 3))
    assert kreweras(validate_nc(3, [[1, 3], [2]])).blocks == ((1, 2), (3,))


def test_kreweras_memo_is_bounded():
    # kreweras is public, so any validated partition can become a key, and
    # the memo must not grow with the number of distinct inputs
    for gamma in enumerate_nc(10)[:4200]:
        kreweras(gamma)
    assert kreweras.cache_info().currsize <= 4096


def test_kreweras_refuses_a_linked_partition(fresh_caches):
    # the cycle walk of (1,2)(2,3) gives the block (1, 3, 2), which is not
    # increasing, and the memo would keep it
    with pytest.raises(NotAPartition) as err:
        partitions.kreweras(validate_ncl(3, [[1, 2], [2, 3]]))
    assert str(err.value) == "(1,2)(2,3) is not a partition: 2 lies in two blocks"
    assert partitions.kreweras.cache_info().currsize == 0
    # with no links, a linked partition is a partition
    assert partitions.kreweras(validate_ncl(3, [[1], [2, 3]])).blocks == ((1, 3), (2,))


@pytest.mark.parametrize("n", range(1, 8))
def test_kreweras_against_exhaustive_search(n):
    for gamma in enumerate_nc(n):
        want = kreweras_by_search(gamma.blocks, n)
        assert kreweras(gamma).blocks == want


@pytest.mark.parametrize("n", range(1, 11))
def test_kreweras_cycle_walk_equals_the_union_find(n):
    # the uncached function, so the bounded memo keeps its own keys
    for gamma in enumerate_nc(n):
        assert kreweras.__wrapped__(gamma) == kreweras_by_union_find(gamma)


@pytest.mark.parametrize("n", range(1, 9))
def test_kreweras_block_count(n):
    for gamma in enumerate_nc(n):
        assert len(gamma.blocks) + len(kreweras(gamma).blocks) == n + 1


def test_kreweras_union_non_crossing():
    for n in range(1, 7):
        for gamma in enumerate_nc(n):
            assert interleaved_union_ok(gamma.blocks, kreweras(gamma).blocks, n)


def _crossing_test(gamma, sigma) -> bool:
    return verify._compatible(verify._interleaving(gamma)[0], verify._interleaving(sigma)[1])


@pytest.mark.parametrize("n", range(1, 6))
def test_maximality_crossing_test_agrees_with_validation(n):
    for gamma in enumerate_nc(n):
        for sigma in enumerate_nc(n):
            assert _crossing_test(gamma, sigma) is interleaved_compatible_by_validation(
                gamma, sigma), (gamma, sigma)


def test_maximality_crossing_test_agrees_with_validation_six():
    nc6 = enumerate_nc(6)
    rng = random.Random(611)
    pairs = [(gamma, kreweras(gamma)) for gamma in nc6]
    pairs += [(rng.choice(nc6), rng.choice(nc6)) for _ in range(500)]
    outcomes = Counter()
    for gamma, sigma in pairs:
        got = _crossing_test(gamma, sigma)
        assert got is interleaved_compatible_by_validation(gamma, sigma), (gamma, sigma)
        outcomes[got] += 1
    assert outcomes[True] >= len(nc6) and outcomes[False] > 0


def _packed_refines(sigma, pi) -> bool:
    # no block of sigma, read at its minimum, reaches outside pi's block there
    return not verify._interleaving(sigma)[1] & verify._interleaving(pi)[2]


def test_packed_refinement_equals_leq():
    for n in range(1, 7):
        members = enumerate_nc(n)
        for sigma in members:
            for pi in members:
                assert _packed_refines(sigma, pi) is leq(sigma, pi), (sigma, pi)
    nc7 = enumerate_nc(7)
    rng = random.Random(733)
    outcomes = Counter()
    for sigma, pi in [(rng.choice(nc7), rng.choice(nc7)) for _ in range(500)]:
        got = _packed_refines(sigma, pi)
        assert got is leq(sigma, pi), (sigma, pi)
        outcomes[got] += 1
    assert outcomes[True] and outcomes[False]


def test_maximality_finds_a_coarser_partition_than_singletons(monkeypatch):
    # singletons cross nothing, so only the refinement test can see that the
    # true complement is coarser; one that always answered "refines" passes
    def singletons(gamma):
        return NCPartition(gamma.n, tuple((e,) for e in range(1, gamma.n + 1)))

    monkeypatch.setattr(verify, "kreweras", singletons)
    entries = {e.parameters["n"]: e for e in verify.kreweras_suite(6)
               if e.identity == "complement maximality"}
    assert entries[1].witness is None
    for n in range(2, 7):
        assert set(entries[n].witness) == {"partition", "complement", "coarser"}, n


def test_maximality_packs_each_partition_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(verify, "_interleaving", counted("pack", verify._interleaving))
    counted_leq = counted("leq", leq)
    monkeypatch.setattr(partitions, "leq", counted_leq)
    monkeypatch.setattr(verify, "leq", counted_leq, raising=False)
    verify.kreweras_suite(6)
    # every complement is a member of its NC(n), so none is packed again
    assert calls == {"pack": sum(catalan(n) for n in range(1, 7))}


# ---------------------------------------------------------------------------
# parity-split families


def test_is_ncs_examples():
    assert is_ncs(validate_nc(4, [[1, 3], [2], [4]]))
    assert is_ncs(validate_nc(4, [[1], [3], [2, 4]]))
    assert not is_ncs(validate_nc(4, [[1, 2], [3, 4]]))


def test_is_ncs_odd_ground_set():
    with pytest.raises(OddGroundSet):
        is_ncs(validate_nc(3, [[1, 2, 3]]))


@pytest.mark.parametrize("n", range(2, 13, 2))
def test_is_ncs_matches_kreweras_route(n):
    # every NC(2k): members, parity-pure non-members with too many blocks,
    # and partitions with mixed blocks
    members = 0
    for gamma in enumerate_nc(n):
        got = is_ncs(gamma)
        assert got == is_ncs_by_kreweras(gamma), gamma
        members += got
    assert members == catalan(n // 2)


@pytest.mark.parametrize("n", range(1, 10))
def test_is_ncls_matches_component_route(n):
    members = 0
    for pi in enumerate_ncl(n):
        got = is_ncls(pi)
        assert got == is_ncls_by_components(pi), pi
        members += got
    assert members == (len(enumerate_ncls(n // 2)) if n % 2 == 0 else 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_ncs_equals_filter(n):
    got = set(enumerate_ncs(n))
    want = {g for g in enumerate_nc(2 * n) if is_ncs(g)}
    assert got == want
    assert len(got) == catalan(n)


def test_enumerate_ncs_members_pass_membership():
    for n in range(1, 5):
        for g in enumerate_ncs(n):
            assert is_ncs(g)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 7), (4, 30), (5, 143)])
def test_enumerate_ncls_counts(n, count):
    members = enumerate_ncls(n)
    assert len(members) == count
    for pi in members:
        assert is_ncls(pi)


def test_enumerate_ncls_equals_component_filter():
    for n in (1, 2, 3):
        got = set(enumerate_ncls(n))
        want = {pi for pi in enumerate_ncl(2 * n) if is_ncls(pi)}
        assert got == want


def test_ncls_limit():
    with pytest.raises(LimitExceeded):
        enumerate_ncls(6)


# ---------------------------------------------------------------------------
# properties


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_minima_distinct_and_membership_bound(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    pi = data.draw(st.sampled_from(enumerate_ncl(n)))
    minima = [b[0] for b in pi.blocks]
    assert len(set(minima)) == len(minima)
    for e in range(1, n + 1):
        holders = [b for b in pi.blocks if e in b]
        assert 1 <= len(holders) <= 2
        assert sum(1 for b in holders if b[0] == e) <= 1


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_components_are_coarser(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    pi = data.draw(st.sampled_from(enumerate_ncl(n)))
    comp = connected_components(pi)
    assert leq(pi, NCLPartition(comp.n, comp.blocks))
