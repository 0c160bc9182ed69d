import copy
import gc
import pickle
import time
from collections import Counter
from functools import cache
from dataclasses import FrozenInstanceError
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noncrossing.partitions
import noncrossing.trees
from noncrossing.errors import LimitExceeded, NotConnected, NotNclS
from noncrossing.partitions import (
    NCPartition,
    enumerate_nc,
    enumerate_ncl,
    enumerate_ncls,
    kreweras,
    non_minimal_elements,
    validate_nc,
    validate_ncl,
)
from noncrossing.transforms import TCoeffSequence, eval_bicolor, eval_tree, ncls_weight
from noncrossing.trees import (
    BicolorPlanarTree,
    PlanarTree,
    bicolor_from_ncls,
    connected_from_tree,
    elementary_decomposition,
    enumerate_bicolor,
    enumerate_bicolor_elementary,
    enumerate_planar_trees,
    ncls_from_bicolor,
    tree_from_connected,
    vertex_order,
)

from oracles import (
    bicolor_by_exterior_blocks,
    catalan,
    colour_counts_by_walk,
    connected_by_union_find,
    elementary_by_walk,
    is_ncls_by_components,
    ncls_weight_by_profile,
    rebuild_by_walk,
    repr_by_walk,
    size_by_walk,
    str_by_walk,
    vertex_order_by_walk,
)

LEAF = PlanarTree()
CHAIN3 = PlanarTree((PlanarTree((LEAF,)),))
STAR3 = PlanarTree((LEAF, LEAF))
# root; children a, b; a has child c; b has children d, e
EXAMPLE3_TREE = PlanarTree((PlanarTree((LEAF,)), PlanarTree((LEAF, LEAF))))


def ncl(n, blocks):
    return validate_ncl(n, blocks)


# ---------------------------------------------------------------------------
# the representation: preorder child-count words behind the tree API

PLAIN_DOMAIN = [t for n in range(1, 11) for t in enumerate_planar_trees(n)]
BICOLOR_DOMAIN = [t for n in range(1, 8) for t in enumerate_bicolor(n)]


def test_words_of_small_trees():
    assert LEAF.word == (0,) and BicolorPlanarTree().word == (0, 0)
    assert EXAMPLE3_TREE.word == (2, 1, 0, 2, 0, 0)
    leaf = BicolorPlanarTree()
    assert BicolorPlanarTree(((1, BicolorPlanarTree(((0, leaf),))), (0, leaf))).word == \
        (1, 1, 0, 1, 0, 0, 0, 0)


@pytest.mark.parametrize("domain", [PLAIN_DOMAIN, BICOLOR_DOMAIN], ids=["plain", "bicolor"])
def test_trees_rebuild_from_their_children(domain):
    # every planar tree to 10 vertices and every bicolor tree to 7
    assert len(domain) in (6918, 4787)
    for tree in domain:
        twin = rebuild_by_walk(tree)
        assert twin == tree and hash(twin) == hash(tree) and twin.word == tree.word
        assert tree.size == size_by_walk(tree)
        assert str(tree) == str_by_walk(tree)
        assert repr(tree) == repr_by_walk(tree)


def test_tree_repr_is_the_dataclass_repr():
    leaf = BicolorPlanarTree()
    assert repr(LEAF) == "PlanarTree(children=())"
    assert repr(PlanarTree((LEAF,))) == "PlanarTree(children=(PlanarTree(children=()),))"
    assert repr(PlanarTree((PlanarTree((LEAF,)), LEAF))) == (
        "PlanarTree(children=(PlanarTree(children=(PlanarTree(children=()),)), "
        "PlanarTree(children=())))")
    assert repr(BicolorPlanarTree(((1, leaf),))) == \
        "BicolorPlanarTree(children=((1, BicolorPlanarTree(children=())),))"
    assert repr(BicolorPlanarTree(((1, BicolorPlanarTree(((0, leaf),))), (0, leaf)))) == (
        "BicolorPlanarTree(children=((1, BicolorPlanarTree(children=((0, "
        "BicolorPlanarTree(children=())),))), (0, BicolorPlanarTree(children=()))))")


@pytest.mark.parametrize("kind", ["plain", "bicolor"])
def test_deep_tree_repr_does_not_recurse(kind):
    # a 3,000-deep path, bicolor edges alternating 1, 0, 1, ...: one scan,
    # not a rebuild of the subtrees at every level
    depth = 3000
    tree = PlanarTree() if kind == "plain" else BicolorPlanarTree()
    for level in range(depth - 1, 0, -1):
        tree = PlanarTree((tree,)) if kind == "plain" else BicolorPlanarTree(((level % 2, tree),))
    start = time.perf_counter()
    text = repr(tree)
    assert time.perf_counter() - start < 1
    if kind == "plain":
        assert text == "PlanarTree(children=(" * depth + "))" + ",))" * (depth - 1)
    else:
        opens = "".join(f"({level % 2}, BicolorPlanarTree(children=(" for level in range(1, depth))
        assert text == ("BicolorPlanarTree(children=(" + opens + ")))"
                        + ",)))" * (depth - 2) + ",))")


@pytest.mark.parametrize("domain", [PLAIN_DOMAIN, BICOLOR_DOMAIN], ids=["plain", "bicolor"])
def test_trees_copy_and_pickle_by_value(domain):
    for twins in (list(map(copy.copy, domain)), copy.deepcopy(domain),
                  pickle.loads(pickle.dumps(domain))):
        assert twins == domain
        assert all(type(a) is type(b) and hash(a) == hash(b) for a, b in zip(twins, domain))


@pytest.mark.parametrize("tree", [EXAMPLE3_TREE, BicolorPlanarTree(((0, BicolorPlanarTree()),))])
def test_trees_cannot_be_changed(tree):
    for name in ("word", "children", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(tree, name, ())
        with pytest.raises(FrozenInstanceError):
            delattr(tree, name)


def test_decompositions_match_nested_walks():
    for tree in PLAIN_DOMAIN:
        assert vertex_order(tree) == vertex_order_by_walk(tree)
        assert elementary_decomposition(tree) == elementary_by_walk(tree)
    for tree in BICOLOR_DOMAIN:
        assert tuple(zip(tree.word[::2], tree.word[1::2])) == tuple(colour_counts_by_walk(tree))


def test_plain_tree_refuses_a_bicolor_child():
    with pytest.raises(TypeError, match="not BicolorPlanarTree$"):
        PlanarTree((BicolorPlanarTree(),))


def test_plain_tree_refuses_a_child_that_is_no_tree():
    with pytest.raises(TypeError, match="not int$"):
        PlanarTree((1,))


def test_bicolor_tree_refuses_a_plain_child():
    with pytest.raises(TypeError, match="not PlanarTree$"):
        BicolorPlanarTree(((1, PlanarTree()),))


def test_children_given_as_a_list_build_the_tuple_tree():
    leaf = BicolorPlanarTree()
    for listed, tupled in ((PlanarTree([LEAF, STAR3]), PlanarTree((LEAF, STAR3))),
                           (BicolorPlanarTree([(1, leaf), (0, leaf)]),
                            BicolorPlanarTree(((1, leaf), (0, leaf))))):
        assert listed == tupled and hash(listed) == hash(tupled)
        assert listed.children == tupled.children and type(listed.children) is tuple


# ---------------------------------------------------------------------------
# vertex order and elementary pieces


def test_vertex_order_single():
    assert vertex_order(LEAF) == ((),)


def test_vertex_order_example_tree():
    # preorder: root=1, a=2, c=3, b=4, d=5, e=6
    assert vertex_order(EXAMPLE3_TREE) == ((2, 4), (3,), (), (5, 6), (), ())


def test_vertex_order_elementary():
    star = PlanarTree((LEAF,) * 4)
    assert vertex_order(star) == ((2, 3, 4, 5), (), (), (), ())


def test_elementary_decomposition_chain_and_star():
    assert [d for _, d in elementary_decomposition(CHAIN3)] == [1, 1, 0]
    assert [d for _, d in elementary_decomposition(STAR3)] == [2, 0, 0]
    assert elementary_decomposition(LEAF) == ((1, 0),)


# ---------------------------------------------------------------------------
# enumerations


@pytest.mark.parametrize("n", range(1, 10))
def test_planar_tree_counts(n):
    trees = enumerate_planar_trees(n)
    assert len(trees) == catalan(n - 1)
    assert len(set(trees)) == len(trees)
    assert all(t.size == n for t in trees)


def test_tree_limit():
    with pytest.raises(LimitExceeded):
        enumerate_planar_trees(11)
    with pytest.raises(LimitExceeded):
        enumerate_bicolor(8)


def test_bicolor_elementary():
    assert len(enumerate_bicolor_elementary(1)) == 1
    assert len(enumerate_bicolor_elementary(2)) == 2
    four = enumerate_bicolor_elementary(4)
    assert len(four) == 4
    # colour-1 child count runs n-1 .. 0
    assert [sum(1 for c, _ in t.children if c == 1) for t in four] == [3, 2, 1, 0]


def test_bicolor_elementary_checks_the_trees_cap():
    with pytest.raises(ValueError, match=r"trees needs a size of at least 1 \(requested 0\)"):
        enumerate_bicolor_elementary(0)
    start = time.perf_counter()
    with pytest.raises(LimitExceeded, match=r"trees is capped at 10 \(requested 11\)"):
        enumerate_bicolor_elementary(11)
    assert time.perf_counter() - start < 0.1
    for n in range(1, 9):
        want = ["(" + "1()" * k + "0()" * (n - 1 - k) + ")" for k in range(n - 1, -1, -1)]
        assert list(map(str, enumerate_bicolor_elementary(n))) == want


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 7), (4, 30), (5, 143)])
def test_bicolor_counts(n, count):
    trees = enumerate_bicolor(n)
    assert len(trees) == count
    assert len(set(trees)) == count
    assert all(t.size == n for t in trees)


def test_bicolor_count_matches_per_vertex_choices():
    # each vertex with d children admits d+1 colourings
    for n in range(1, 6):
        expected = 0
        for shape in enumerate_planar_trees(n):
            fac = 1
            for _, d in elementary_decomposition(shape):
                fac *= d + 1
            expected += fac
        assert len(enumerate_bicolor(n)) == expected


def test_bicolor_colour_order_enforced():
    with pytest.raises(ValueError):
        BicolorPlanarTree(((0, BicolorPlanarTree()), (1, BicolorPlanarTree())))


# ---------------------------------------------------------------------------
# the connected-partition bijection


def test_tree_from_connected_examples():
    assert tree_from_connected(ncl(4, [[1, 2, 3, 4]])) == PlanarTree((LEAF,) * 3)
    assert tree_from_connected(ncl(3, [[1, 2], [2, 3]])) == CHAIN3
    assert tree_from_connected(ncl(4, [[1, 2, 4], [2, 3]])) == PlanarTree(
        (PlanarTree((LEAF,)), LEAF)
    )


def test_tree_from_connected_rejects_disconnected():
    with pytest.raises(NotConnected):
        tree_from_connected(ncl(3, [[1, 2], [3]]))


@pytest.mark.parametrize("n", range(1, 10))
def test_tree_from_connected_raises_exactly_on_disconnected(n):
    members = 0
    for pi in enumerate_ncl(n):
        if connected_by_union_find(pi):
            assert connected_from_tree(tree_from_connected(pi)) == pi
            members += 1
        else:
            with pytest.raises(NotConnected):
                tree_from_connected(pi)
    assert members == catalan(n - 1)


def test_connected_from_tree_examples():
    assert connected_from_tree(CHAIN3) == ncl(3, [[1, 2], [2, 3]])
    assert connected_from_tree(PlanarTree((LEAF,) * 4)) == ncl(5, [[1, 2, 3, 4, 5]])
    assert connected_from_tree(EXAMPLE3_TREE) == ncl(6, [[1, 2, 4], [2, 3], [4, 5, 6]])
    assert connected_from_tree(LEAF) == ncl(1, [[1]])


def test_inverse_bijections_check_the_tree_kind():
    # each inverse reads the word in its own kind's layout: the other kind is
    # refused, but for the one vertex, which is also the bicolor leaf
    edge = BicolorPlanarTree(((1, BicolorPlanarTree()),))
    with pytest.raises(NotConnected, match="^expected a plain planar tree, got a bicolor one$"):
        connected_from_tree(edge)
    with pytest.raises(NotNclS, match=r"^expected a bicolor tree \(colours missing\)$"):
        ncls_from_bicolor(PlanarTree((LEAF,)))
    assert ncls_from_bicolor(PlanarTree()) == ncls_from_bicolor(BicolorPlanarTree())


@pytest.mark.parametrize("n", range(1, 10))
def test_theta_roundtrip_full_domain(n):
    trees = enumerate_planar_trees(n)
    partitions = [connected_from_tree(t) for t in trees]
    assert len(set(partitions)) == len(trees) == catalan(n - 1)
    for t, pi in zip(trees, partitions):
        assert tree_from_connected(pi) == t


@pytest.mark.parametrize("n", range(2, 9))
def test_theta_block_sizes_match_degrees(n):
    for t in enumerate_planar_trees(n):
        pi = connected_from_tree(t)
        sizes = sorted(len(b) - 1 for b in pi.blocks if len(b) > 1)
        degrees = sorted(d for _, d in elementary_decomposition(t) if d > 0)
        assert sizes == degrees


def test_theta_numbering_consistency():
    # each block of the partition appears as vertex numbers (min, children)
    for t in enumerate_planar_trees(6):
        pi = connected_from_tree(t)
        numbered = {(v + 1,) + kids for v, kids in enumerate(vertex_order(t)) if kids}
        blocks = {b for b in pi.blocks if len(b) > 1}
        assert numbered == blocks or (pi.n == 1 and not numbered)


# ---------------------------------------------------------------------------
# the parity-split bijection


def test_bicolor_from_ncls_examples():
    b = BicolorPlanarTree
    leaf = b()
    assert bicolor_from_ncls(ncl(6, [[1, 3, 5], [2], [4], [6]])) == b(
        ((1, leaf), (1, leaf))
    )
    assert bicolor_from_ncls(ncl(6, [[1, 3], [3, 5], [2], [4], [6]])) == b(
        ((1, b(((1, leaf),))),)
    )
    assert bicolor_from_ncls(ncl(6, [[1], [3, 5], [2, 6], [4]])) == b(
        ((0, b(((1, leaf),))),)
    )


def test_bicolor_from_ncls_single():
    assert bicolor_from_ncls(ncl(2, [[1], [2]])) == BicolorPlanarTree()


def test_bicolor_from_ncls_rejects_non_split():
    with pytest.raises(NotNclS):
        bicolor_from_ncls(ncl(4, [[1, 2], [3, 4]]))
    with pytest.raises(NotNclS):
        bicolor_from_ncls(ncl(3, [[1, 2, 3]]))


@pytest.mark.parametrize("n", range(1, 9))
def test_bicolor_from_ncls_raises_exactly_on_non_split(n):
    members = 0
    for pi in enumerate_ncl(n):
        if is_ncls_by_components(pi):
            assert ncls_from_bicolor(bicolor_from_ncls(pi)) == pi
            members += 1
        else:
            with pytest.raises(NotNclS):
                bicolor_from_ncls(pi)
    assert members == (len(enumerate_ncls(n // 2)) if n % 2 == 0 else 0)


def test_ncls_from_bicolor_examples():
    leaf = BicolorPlanarTree()
    assert ncls_from_bicolor(leaf) == ncl(2, [[1], [2]])
    assert ncls_from_bicolor(BicolorPlanarTree(((0, leaf),))) == ncl(
        4, [[1], [3], [2, 4]]
    )


def test_bijections_never_recount_tree_sizes(monkeypatch):
    # the size checks inside θ and λ compare counts the construction already
    # has, so neither walks the whole tree again
    plain = [t for n in range(1, 9) for t in enumerate_planar_trees(n)]
    bicolor = [t for n in range(1, 6) for t in enumerate_bicolor(n)]

    def walked(self):
        raise AssertionError("a bijection walked a tree to count its vertices")

    monkeypatch.setattr(PlanarTree, "size", property(walked))
    monkeypatch.setattr(BicolorPlanarTree, "size", property(walked))
    for tree in plain:
        assert tree_from_connected(connected_from_tree(tree)) == tree
    for tree in bicolor:
        assert bicolor_from_ncls(ncls_from_bicolor(tree)) == tree


@pytest.mark.parametrize("n", range(1, 6))
def test_lambda_roundtrip_full_domain(n):
    members = enumerate_ncls(n)
    images = []
    for pi in members:
        tree = bicolor_from_ncls(pi)
        assert tree.size == n
        assert ncls_from_bicolor(tree) == pi
        images.append(tree)
    assert len(set(images)) == len(members)
    assert set(images) == set(enumerate_bicolor(n))


@pytest.mark.parametrize("n", range(1, 8))
def test_lambda_inverse_roundtrip(n):
    for tree in enumerate_bicolor(n):
        pi = ncls_from_bicolor(tree)
        assert bicolor_from_ncls(pi) == tree


def test_lambda_matches_exterior_block_fold():
    # the one-pass reading against the paper's exterior-block construction
    domain = [pi for n in range(1, 6) for pi in enumerate_ncls(n)]
    domain += [ncls_from_bicolor(t) for t in enumerate_bicolor(6)]
    for pi in domain:
        assert bicolor_from_ncls(pi) == bicolor_by_exterior_blocks(pi)


def test_bijections_leave_no_reference_cycles(monkeypatch):
    # everything the enumerations and a θ or λ round trip allocate is freed
    # or cached by reference counting, so nothing is left for the cyclic
    # collector, which the command-line process runs without
    for name in ("_trees", "_bicolor"):
        monkeypatch.setattr(noncrossing.trees, name,
                            cache(getattr(noncrossing.trees, name).__wrapped__))
    gc.collect()
    gc.disable()
    try:
        trees = [t for n in range(1, 8) for t in enumerate_planar_trees(n)]
        bicolor = [t for n in range(1, 6) for t in enumerate_bicolor(n)]
        assert [len(enumerate_bicolor_elementary(n)) for n in range(1, 8)] == [*range(1, 8)]
        for tree in trees:
            assert tree_from_connected(connected_from_tree(tree)) == tree
        for tree in bicolor:
            assert bicolor_from_ncls(ncls_from_bicolor(tree)) == tree
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bijections_need_no_kreweras(monkeypatch):
    # membership and connectivity are block counts, so neither round trip
    # builds a Kreweras complement, a restriction or the components
    plain = [t for n in range(1, 9) for t in enumerate_planar_trees(n)]
    bicolor = [t for n in range(1, 6) for t in enumerate_bicolor(n)]

    def unused(*args, **kwargs):
        raise AssertionError("a bijection built a complement, restriction or components")

    for mod in (noncrossing.partitions, noncrossing.trees):
        for name in ("kreweras", "restrict", "connected_components"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, unused)
    for tree in plain:
        assert tree_from_connected(connected_from_tree(tree)) == tree
    for tree in bicolor:
        assert bicolor_from_ncls(ncls_from_bicolor(tree)) == tree


@pytest.mark.parametrize("n", range(1, 6))
def test_lambda_colour_counts_match_block_structure(n):
    def colour_counts(tree):
        ones = sum(1 for c, _ in tree.children if c == 1)
        zeros = len(tree.children) - ones
        for _, child in tree.children:
            a, b = colour_counts(child)
            ones += a
            zeros += b
        return ones, zeros

    for pi in enumerate_ncls(n):
        ones, zeros = colour_counts(bicolor_from_ncls(pi))
        odd = sum(len(b) - 1 for b in pi.blocks if b[0] % 2 == 1)
        even = sum(len(b) - 1 for b in pi.blocks if b[0] % 2 == 0)
        assert (ones, zeros) == (odd, even)


def test_lambda_unlinked_members_alternate_colours():
    # unlinked members map exactly onto trees whose non-root vertices have
    # all children coloured opposite to their incoming edge
    def walk_root(tree):
        def walk(node, incoming):
            for colour, child in node.children:
                if incoming is not None and colour == incoming:
                    return False
                if not walk(child, colour):
                    return False
            return True

        return walk(tree, None)

    for n in range(1, 5):
        for pi in enumerate_ncls(n):
            unlinked = all(
                len(set(a) & set(b)) == 0
                for i, a in enumerate(pi.blocks)
                for b in pi.blocks[i + 1 :]
            )
            assert walk_root(bicolor_from_ncls(pi)) == unlinked


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_lambda_weight_bookkeeping(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    pi = data.draw(st.sampled_from(enumerate_ncls(n)))
    tree = bicolor_from_ncls(pi)
    # vertex count equals half the ground set; shared elements are exactly
    # the vertices carrying same-colour children
    assert tree.size == pi.n // 2
    assert len(non_minimal_elements(pi)) == pi.n - len(pi.blocks)


# ---------------------------------------------------------------------------
# the bijections far past the enumeration caps, on uniform random trees


def _composition_tree(n: int, width: int, bars):
    """The tree of the weak composition of n - 1 into ``width`` * n parts
    whose ``width`` * n - 1 bars sit at the sorted positions ``bars`` among
    ``width`` * n + n - 2 slots (stars and bars), read as ``width`` child
    counts per vertex and turned by whole vertices to the rotation that is a
    preorder word.  By the cycle lemma exactly one rotation is: the one that
    starts after the first vertex at which the partial sums of
    (children - 1) are least.  The tree is built by the public constructors."""
    counts = [b - a - 1 for a, b in zip([-1, *bars], [*bars, width * n + n - 2])]
    least, start, partial = 0, 0, 0
    for v in range(n):
        partial += sum(counts[width * v:width * v + width]) - 1
        if partial < least:
            least, start = partial, v + 1
    cut = width * (start % n)
    word = counts[cut:] + counts[:cut]
    # from the last vertex back, each takes its children off a stack, first child on top
    stack: list = []
    for i in range(len(word) - width, -1, -width):
        kids = [stack.pop() for _ in range(sum(word[i:i + width]))]
        stack.append(PlanarTree(kids) if width == 1 else BicolorPlanarTree(
            [(1, kid) for kid in kids[:word[i]]] + [(0, kid) for kid in kids[word[i]:]]))
    tree = stack.pop()
    assert tree.word == tuple(word) and not stack
    return tree


@st.composite
def uniform_trees(draw, width: int, max_size: int = 3000):
    """A uniform planar (``width`` 1) or bicolor (``width`` 2) tree with up
    to ``max_size`` vertices, from a uniform composition."""
    n = draw(st.integers(1, max_size))
    bars = draw(st.randoms()).sample(range(width * n + n - 2), width * n - 1)
    return _composition_tree(n, width, sorted(bars))


@pytest.mark.parametrize("width, top", [(1, 6), (2, 4)], ids=["plain", "bicolor"])
def test_each_tree_comes_from_n_compositions(width, top):
    # every tree with n vertices comes from exactly n compositions, one per
    # rotation, so the generator is uniform
    for n in range(1, top + 1):
        hits = Counter(_composition_tree(n, width, bars)
                       for bars in combinations(range(width * n + n - 2), width * n - 1))
        domain = enumerate_planar_trees(n) if width == 1 else enumerate_bicolor(n)
        assert set(hits) == set(domain) and set(hits.values()) == {n}


@given(uniform_trees(1))
@settings(max_examples=25, deadline=None)
def test_theta_round_trip_far_past_the_cap(tree):
    pi = connected_from_tree(tree)
    assert validate_ncl(pi.n, pi.blocks) == pi and connected_by_union_find(pi)
    assert tree_from_connected(pi) == tree


@given(uniform_trees(2))
@settings(max_examples=25, deadline=None)
def test_lambda_round_trip_far_past_the_cap(tree):
    pi = ncls_from_bicolor(tree)
    assert pi.n == 2 * tree.size
    assert validate_ncl(pi.n, pi.blocks) == pi and is_ncls_by_components(pi)
    assert bicolor_from_ncls(pi) == tree


def _small_tcoeffs(data, order: int) -> TCoeffSequence:
    """t_0..t_(order-1), nonzero small integers, so no weight vanishes."""
    nonzero = st.sampled_from([-3, -2, -1, 1, 2, 3])
    return TCoeffSequence(data.draw(st.lists(nonzero, min_size=order, max_size=order)))


@given(uniform_trees(1, max_size=200), st.data())
@settings(max_examples=25, deadline=None)
def test_tree_weight_is_the_linked_weight_far_past_the_cap(tree, data):
    # t_(child count) per vertex against t_(|B| - 1) per block of θ⁻¹(tree)
    # and t_0 per non-minimal position, of which there are n - #blocks
    t = _small_tcoeffs(data, tree.size)
    pi = connected_from_tree(tree)
    linked = prod(t.values[len(b) - 1] for b in pi.blocks) * t.values[0] ** (
        pi.n - len(pi.blocks))
    assert eval_tree(tree, t) == linked


@given(uniform_trees(2, max_size=200), st.data())
@settings(max_examples=25, deadline=None)
def test_bicolor_weight_is_the_split_weight_far_past_the_cap(tree, data):
    tx, ty = _small_tcoeffs(data, tree.size), _small_tcoeffs(data, tree.size)
    pi = ncls_from_bicolor(tree)
    assert eval_bicolor(tree, tx, ty) == ncls_weight(pi, tx, ty) \
        == ncls_weight_by_profile(pi, tx, ty)


def _nc_from_siblings(tree: PlanarTree) -> NCPartition:
    """The partition of {1..n} whose blocks are the children of each vertex
    of a planar tree with n + 1 vertices, numbered 1..n in preorder after the
    root: a bijection onto NC(n), both counted by Catalan(n)."""
    parents, open_vertices = [], []  # (vertex, children still to come)
    for v, count in enumerate(tree.word):
        if open_vertices:
            parent, left = open_vertices.pop()
            parents.append(parent)
            if left > 1:
                open_vertices.append((parent, left - 1))
        if count:
            open_vertices.append((v, count))
    blocks: dict = {}
    for child, parent in enumerate(parents, 1):
        blocks.setdefault(parent, []).append(child)
    return validate_nc(tree.size - 1, list(blocks.values()))


def test_sibling_blocks_are_a_bijection_onto_nc():
    for n in range(1, 8):
        image = [_nc_from_siblings(tree) for tree in enumerate_planar_trees(n + 1)]
        assert sorted(image, key=lambda pi: pi.blocks) == sorted(enumerate_nc(n),
                                                                 key=lambda pi: pi.blocks)


@given(uniform_trees(1, max_size=201).filter(lambda tree: tree.size > 1))
@settings(max_examples=25, deadline=None)
def test_kreweras_far_past_the_cap(tree):
    # K∘K turns every block by one position back, and |π| + |K(π)| = n + 1
    pi = _nc_from_siblings(tree)
    n, complement = pi.n, kreweras(pi)
    assert len(pi.blocks) + len(complement.blocks) == n + 1
    assert kreweras(complement) == validate_nc(n, [[(b - 2) % n + 1 for b in blk]
                                                   for blk in pi.blocks])
