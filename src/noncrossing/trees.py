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

from .errors import NotConnected, NotNclS
from .limits import check_limit
from .partitions import (
    NCLPartition,
    connected_components,
    exterior_blocks,
    is_ncls,
    restrict,
)


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
    counter = [0]

    def walk(node: PlanarTree) -> int:
        counter[0] += 1
        num = counter[0]
        slot = len(result)
        result.append(())
        result[slot] = tuple(walk(c) for c in node.children)
        return num

    walk(tree)
    return tuple(result)


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
    """The n one-level bicolor trees on n vertices, colour-1 count descending."""
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

    ``pi`` must have a single connected component.  The block with minimum m
    becomes the vertex numbered m together with its children, numbered by
    the remaining block elements; preorder numbering reproduces exactly the
    block labels.
    """
    if len(connected_components(pi).blocks) != 1:
        raise NotConnected(f"{pi} has more than one connected component")
    min_of = {blk[0]: blk for blk in pi.blocks}

    def build(e: int) -> PlanarTree:
        blk = min_of.get(e)
        if blk is None:
            return PlanarTree()
        return PlanarTree(tuple(build(x) for x in blk[1:]))

    tree = build(1)
    assert tree.size == pi.n
    return tree


def connected_from_tree(tree: PlanarTree) -> NCLPartition:
    """Read the blocks of a connected linked partition off a planar tree.

    Each vertex with children contributes the block of its own number
    followed by its children's numbers; a single vertex gives the one-point
    partition.
    """
    order = vertex_order(tree)
    blocks = [(v + 1,) + kids for v, kids in enumerate(order) if kids]
    if not blocks:
        blocks = [(1,)]
    return NCLPartition(tree.size, tuple(sorted(blocks)))


# ---------------------------------------------------------------------------
# parity-split linked partitions <-> bicolor trees


def _block_colour(blk) -> int:
    # parity-pure inside the split family: odd positions are colour 1
    return blk[0] % 2


def bicolor_from_ncls(pi: NCLPartition) -> BicolorPlanarTree:
    """Fold a parity-split linked partition of {1..2n} into a bicolor tree.

    The two exterior blocks populate the root: one is odd (colour 1), the
    other even (colour 0), and their non-minimal elements become the root's
    children in block order, colour 1 first.  For a consecutive pair
    (a, b) inside a block, the vertex of b carries the children of the
    unique exterior block of the interval squeezed between the linked
    structure growing out of a and the position b, plus the children of the
    block whose minimum is b when b is a shared element.  Children of
    colour 1 always precede children of colour 0.
    """
    if not is_ncls(pi):
        raise NotNclS(f"{pi} is not parity-split")
    half = pi.n // 2
    min_of = {blk[0]: blk for blk in pi.blocks}
    used = set()

    ext = exterior_blocks(pi)
    if len(ext) != 2:
        raise NotNclS(f"{pi} has {len(ext)} exterior blocks, expected 2")
    odd_ext = [b for b in ext if _block_colour(b) == 1]
    even_ext = [b for b in ext if _block_colour(b) == 0]
    if len(odd_ext) != 1 or len(even_ext) != 1:
        raise NotNclS(f"exterior blocks of {pi} are not one of each colour")

    def reach(start: int, host) -> int:
        # largest position linked to ``start`` through blocks rooted at it,
        # ignoring the host pair's own block
        top = start
        stack = [start]
        seen = {start}
        while stack:
            e = stack.pop()
            d = min_of.get(e)
            if d is None or d == host:
                continue
            for x in d[1:]:
                if x not in seen:
                    seen.add(x)
                    top = max(top, x)
                    stack.append(x)
        return top

    def gap_exterior(prev: int, cur: int, host):
        lo = reach(prev, host)
        region = tuple(range(lo + 1, cur))
        assert region, "a vertex interval is never empty"
        sub = restrict(pi, region)
        sub_ext = exterior_blocks(sub)
        if len(sub_ext) != 1:
            raise NotNclS(f"interval {region} of {pi} lacks a unique exterior block")
        return tuple(region[e - 1] for e in sub_ext[0])

    def make_vertex(cur: int, prev: int, host) -> BicolorPlanarTree:
        gap = gap_exterior(prev, cur, host)
        used.add(gap)
        linked = min_of.get(cur)
        if linked is not None:
            used.add(linked)
        host_colour = _block_colour(host)
        gap_children = tuple(
            (1 - host_colour, make_vertex(b, a, gap)) for a, b in zip(gap, gap[1:])
        )
        link_children = tuple(
            (host_colour, make_vertex(b, a, linked))
            for a, b in zip(linked, linked[1:])
        ) if linked is not None else ()
        if host_colour == 1:
            children = link_children + gap_children
        else:
            children = gap_children + link_children
        return BicolorPlanarTree(children)

    e1, e0 = odd_ext[0], even_ext[0]
    used.update((e1, e0))
    root_children = tuple(
        (1, make_vertex(b, a, e1)) for a, b in zip(e1, e1[1:])
    ) + tuple((0, make_vertex(b, a, e0)) for a, b in zip(e0, e0[1:]))
    tree = BicolorPlanarTree(root_children)
    assert tree.size == half
    assert used == set(pi.blocks)
    return tree


def ncls_from_bicolor(tree: BicolorPlanarTree) -> NCLPartition:
    """Unfold a bicolor tree with n vertices into its partition of {1..2n}.

    Positions are assigned by the interleaved traversal which, at every
    vertex, first emits the opposite-colour element, then the subtrees of
    the opposite colour, then the vertex's own element, then the subtrees
    of its own colour.  Each vertex then contributes its opposite-colour
    block, and its own-colour block when it has own-colour children.
    """
    counter = [0]
    blocks: list[tuple[int, ...]] = []

    def next_pos() -> int:
        counter[0] += 1
        return counter[0]

    def visit(node: BicolorPlanarTree, incoming: int) -> int:
        opposite = [c for col, c in node.children if col != incoming]
        same = [c for col, c in node.children if col == incoming]
        other_pos = next_pos()
        opposite_owns = [visit(c, 1 - incoming) for c in opposite]
        own_pos = next_pos()
        same_owns = [visit(c, incoming) for c in same]
        blocks.append((other_pos, *opposite_owns))
        if same_owns:
            blocks.append((own_pos, *same_owns))
        return own_pos

    odd_root = next_pos()
    colour1 = [c for col, c in tree.children if col == 1]
    colour0 = [c for col, c in tree.children if col == 0]
    colour1_owns = [visit(c, 1) for c in colour1]
    even_root = next_pos()
    colour0_owns = [visit(c, 0) for c in colour0]
    blocks.append((odd_root, *colour1_owns))
    blocks.append((even_root, *colour0_owns))

    n2 = counter[0]
    assert n2 == 2 * tree.size
    result = NCLPartition(n2, tuple(sorted(blocks)))
    assert is_ncls(result)
    return result
