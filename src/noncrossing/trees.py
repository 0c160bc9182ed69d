"""Planar rooted trees, bicolor planar trees, and their partition bijections.

Vertices of a planar tree are numbered in depth-first preorder (root
first, siblings left to right).  Connected linked partitions of {1..n}
correspond to planar trees with n vertices: each block becomes the
depth-one subtree rooted at the vertex numbered by the block minimum.

Bicolor planar trees colour every edge 0 or 1, with colour-1 children
preceding colour-0 children at each vertex.  Bicolor trees with n
vertices correspond to the parity-split linked partitions of {1..2n}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import count

from .errors import NotConnected, NotNclS
from .limits import check_limit
from .partitions import NCLPartition, is_ncls


@dataclass(frozen=True)
class PlanarTree:
    """A rooted tree with ordered children."""

    children: tuple["PlanarTree", ...] = ()

    @property
    def size(self) -> int:
        return 1 + sum(c.size for c in self.children)

    def __str__(self) -> str:
        return "(" + "".join(str(c) for c in self.children) + ")"

    def to_json_dict(self) -> dict:
        return {"children": [{"tree": c.to_json_dict()} for c in self.children]}


@dataclass(frozen=True)
class BicolorPlanarTree:
    """A planar tree whose edges carry colours, 1-edges before 0-edges."""

    children: tuple[tuple[int, "BicolorPlanarTree"], ...] = ()

    def __post_init__(self):
        seen_zero = False
        for colour, _ in self.children:
            if colour not in (0, 1):
                raise ValueError(f"edge colour must be 0 or 1, got {colour}")
            if colour == 0:
                seen_zero = True
            elif seen_zero:
                raise ValueError("colour-1 children must precede colour-0 children")

    @property
    def size(self) -> int:
        return 1 + sum(c.size for _, c in self.children)

    def __str__(self) -> str:
        return "(" + "".join(f"{col}{c}" for col, c in self.children) + ")"

    def to_json_dict(self) -> dict:
        return {
            "children": [
                {"color": col, "tree": c.to_json_dict()} for col, c in self.children
            ]
        }


# ---------------------------------------------------------------------------
# vertex order and elementary pieces


def vertex_order(tree: PlanarTree) -> tuple[tuple[int, ...], ...]:
    """Preorder numbering: entry k-1 lists the numbers of vertex k's children."""
    result: list[tuple[int, ...]] = []
    _number(tree, result)
    return tuple(result)


def _number(node: PlanarTree, result: list) -> int:
    """Give ``node`` the next preorder number, len(result) + 1, and its
    subtree the numbers after it; slot number - 1 of ``result`` lists the
    numbers of its children."""
    slot = len(result)
    result.append(())
    result[slot] = tuple(_number(c, result) for c in node.children)
    return slot + 1


def elementary_decomposition(tree: PlanarTree) -> tuple[tuple[int, int], ...]:
    """One (vertex number, child count) pair per vertex, leaves included."""
    return tuple((v + 1, len(kids)) for v, kids in enumerate(vertex_order(tree)))


# ---------------------------------------------------------------------------
# enumeration


@cache
def _forests(m: int, trees) -> tuple[tuple, ...]:
    """Ordered sequences of trees, drawn from ``trees(size)``, with m vertices
    in total; ``trees`` is :func:`_trees` or :func:`_bicolor`."""
    if m == 0:
        return ((),)
    out = []
    for s in range(1, m + 1):
        for t in trees(s):
            for rest in _forests(m - s, trees):
                out.append((t,) + rest)
    return tuple(out)


@cache
def _trees(n: int) -> tuple[PlanarTree, ...]:
    if n == 1:
        return (PlanarTree(),)
    return tuple(PlanarTree(f) for f in _forests(n - 1, _trees))


def enumerate_planar_trees(n: int, *, limit: int | None = None) -> tuple[PlanarTree, ...]:
    """All planar rooted trees with n vertices; Catalan(n-1) of them."""
    check_limit("trees", n, limit)
    return _trees(n)


def enumerate_bicolor_elementary(n: int) -> tuple[BicolorPlanarTree, ...]:
    """The n one-level bicolor trees on n vertices, colour-1 count descending;
    n is capped like the planar trees."""
    check_limit("trees", n)
    leaf = BicolorPlanarTree()
    out = []
    for k in range(n - 1, -1, -1):
        children = ((1, leaf),) * k + ((0, leaf),) * (n - 1 - k)
        out.append(BicolorPlanarTree(children))
    return tuple(out)


@cache
def _bicolor(n: int) -> tuple[BicolorPlanarTree, ...]:
    if n == 1:
        return (BicolorPlanarTree(),)
    out = []
    for f in _forests(n - 1, _bicolor):
        for k in range(len(f), -1, -1):
            children = tuple((1, t) for t in f[:k]) + tuple((0, t) for t in f[k:])
            out.append(BicolorPlanarTree(children))
    return tuple(out)


def enumerate_bicolor(n: int, *, limit: int | None = None) -> tuple[BicolorPlanarTree, ...]:
    """All bicolor planar trees with n vertices."""
    check_limit("bicolor", n, limit)
    return _bicolor(n)


# ---------------------------------------------------------------------------
# connected linked partitions <-> planar trees


def tree_from_connected(pi: NCLPartition) -> PlanarTree:
    """The planar tree whose depth-one subtrees are the blocks of ``pi``.

    ``pi`` must be connected; its links (min B, e) form a forest, so that is
    sum(|B| - 1) = n - 1.  Block (m, ...) becomes vertex m with children
    numbered by its other elements; preorder numbering gives back the labels.
    """
    if sum(map(len, pi.blocks)) - len(pi.blocks) != pi.n - 1:
        raise NotConnected(f"{pi} has more than one connected component")
    min_of = {blk[0]: blk for blk in pi.blocks}
    tree = _subtree_at(1, min_of)
    # with every block taken, the tree has 1 + sum(|B| - 1) = n vertices
    assert not min_of, "a block hangs below no vertex"
    return tree


def _subtree_at(e: int, min_of: dict) -> PlanarTree:
    """The subtree of vertex e: its children are the other elements of the
    block with minimum e, if there is one, taken out of ``min_of``."""
    blk = min_of.pop(e, None)
    if blk is None:
        return PlanarTree()
    return PlanarTree(tuple(_subtree_at(x, min_of) for x in blk[1:]))


def connected_from_tree(tree: PlanarTree) -> NCLPartition:
    """Read the blocks of a connected linked partition off a planar tree.

    Each vertex with children contributes the block of its own number
    followed by its children's numbers, in preorder, which is canonical; a
    single vertex gives the one-point partition.
    """
    order = vertex_order(tree)
    blocks = tuple((v + 1,) + kids for v, kids in enumerate(order) if kids)
    return NCLPartition(len(order), blocks or ((1,),))


# ---------------------------------------------------------------------------
# parity-split linked partitions <-> bicolor trees


def bicolor_from_ncls(pi: NCLPartition) -> BicolorPlanarTree:
    """λ: the bicolor tree with n vertices of a parity-split linked
    partition of {1..2n}.

    The positions are read once, left to right, in the order in which
    :func:`ncls_from_bicolor` writes them.  Reading a position opens the
    block that starts there, if any; its other elements are the own
    positions of the children it lists.  The root reads position 1 for its
    colour-1 children and then the next position for its colour-0 children.
    A vertex entered along a colour-c edge first reads the next position
    for its colour-(1-c) children, and then its own position for its
    colour-c children.  The paper's construction through exterior blocks is
    kept as an independent reference in ``tests/oracles.py``.
    """
    if not is_ncls(pi):
        raise NotNclS(f"{pi} is not parity-split")
    min_of = {blk[0]: blk for blk in pi.blocks}
    colour1, last = _read_children(1, min_of, 0)
    colour0, last = _read_children(0, min_of, last)
    assert last == pi.n
    return BicolorPlanarTree(colour1 + colour0)


def _read_children(colour: int, min_of: dict, last: int) -> tuple:
    """Read position last + 1: the block starting there lists the own
    positions of children entered along ``colour`` edges.  Returns those
    (colour, child) pairs and the last position read."""
    last += 1
    out = []
    for own in min_of.get(last, ())[1:]:
        opposite, last = _read_children(1 - colour, min_of, last)
        assert last + 1 == own, "a vertex reads its own position next"
        same, last = _read_children(colour, min_of, last)
        out.append((colour, BicolorPlanarTree(
            same + opposite if colour else opposite + same
        )))
    return tuple(out), last


def ncls_from_bicolor(tree: BicolorPlanarTree) -> NCLPartition:
    """Unfold a bicolor tree with n vertices into its partition of {1..2n}.

    Positions are assigned by the interleaved traversal which, at every
    vertex, first emits the opposite-colour element, then the subtrees of
    the opposite colour, then the vertex's own element, then the subtrees
    of its own colour.  Each vertex then contributes its opposite-colour
    block, and its own-colour block when it has own-colour children.
    """
    positions = count(1)
    blocks: list[tuple[int, ...]] = []
    odd_root = next(positions)
    colour1 = [c for col, c in tree.children if col == 1]
    colour0 = [c for col, c in tree.children if col == 0]
    colour1_owns = [_unfold(c, 1, positions, blocks) for c in colour1]
    even_root = next(positions)
    colour0_owns = [_unfold(c, 0, positions, blocks) for c in colour0]
    blocks.append((odd_root, *colour1_owns))
    blocks.append((even_root, *colour0_owns))

    n2 = next(positions) - 1
    # two positions per vertex: the root's, and one per own position listed
    assert n2 == 2 * (1 + sum(map(len, blocks)) - len(blocks))
    result = NCLPartition(n2, tuple(sorted(blocks)))
    assert is_ncls(result)
    return result


def _unfold(node: BicolorPlanarTree, incoming: int, positions, blocks: list) -> int:
    """Assign positions to ``node``, entered along an ``incoming`` edge, and
    its subtrees, taking them from ``positions``; append their blocks to
    ``blocks`` and return the node's own position."""
    opposite = [c for col, c in node.children if col != incoming]
    same = [c for col, c in node.children if col == incoming]
    other_pos = next(positions)
    opposite_owns = [_unfold(c, 1 - incoming, positions, blocks) for c in opposite]
    own_pos = next(positions)
    same_owns = [_unfold(c, incoming, positions, blocks) for c in same]
    blocks.append((other_pos, *opposite_owns))
    if same_owns:
        blocks.append((own_pos, *same_owns))
    return own_pos
