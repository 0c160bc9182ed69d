"""Planar rooted trees, bicolor planar trees, and their partition bijections.

Vertices of a planar tree are numbered in depth-first preorder (root
first, siblings left to right).  Connected linked partitions of {1..n}
correspond to planar trees with n vertices: each block becomes the
depth-one subtree rooted at the vertex numbered by the block minimum.
Bicolor planar trees colour every edge 0 or 1, with colour-1 children
preceding colour-0 children at each vertex.  Bicolor trees with n
vertices correspond to the parity-split linked partitions of {1..2n}.

A tree is stored as its preorder child-count ``word``: a planar tree's
Łukasiewicz word, one child count per vertex, or for a bicolor tree the
flattened (colour-1, colour-0) counts per vertex.  Only this module reads
it: the bijections, the weights' t-indices and ``children`` come from it.
"""

from __future__ import annotations

from functools import cache

from .errors import Frozen, NotConnected, NotNclS, shorten
from .limits import check_limit
from .partitions import NCLPartition, is_ncls


class _Tree(Frozen):
    """A tree stored as its word: ``_width`` child counts per vertex, one
    per edge colour in ``_colours`` (None: a planar tree's edges carry no
    colour).  Equality, hash and pickling go by the word, and an instance
    cannot be changed."""

    __slots__ = ("word",)
    _width: int
    _colours: tuple

    def __init__(self, children=()):
        word = [0] * self._width
        for entry in children:
            slot, child = self._slot(entry, word)
            if not isinstance(child, type(self)):
                raise TypeError(f"a child of a {type(self).__name__} must be one too, "
                                f"not {type(child).__name__}")
            word[slot] += 1
            word += child.word
        object.__setattr__(self, "word", tuple(word))

    @staticmethod
    def _slot(entry, counts) -> tuple:
        """The index of the count, among the root's ``counts`` so far, that
        ``entry`` adds to, and its child; a planar tree's entry is a child."""
        return 0, entry

    @classmethod
    def _from_word(cls, word: tuple):
        """The tree of a valid preorder word, taken as it is."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "word", word)
        return tree

    _restore = _from_word

    def _key(self) -> tuple:
        return self.word

    @property
    def size(self) -> int:
        return len(self.word) // self._width

    def _subtrees(self) -> list:
        """The root's children, left to right, each the run of the word from
        one depth-1 vertex to the next."""
        word, width = self.word, self._width
        starts = [width * i for i, (depth, *_) in enumerate(self._vertices()) if depth == 1]
        return [self._from_word(word[a:b]) for a, b in zip(starts, starts[1:] + [len(word)])]

    def _vertices(self):
        """Per vertex in preorder: its depth, the colour of the edge above it
        (None at the root and in a planar tree), and how many younger
        siblings follow it, colour-1 ones and all (a planar tree's siblings
        all count as colour 1).  One scan of the word, with no recursion."""
        word, width, colours = self.word, self._width, self._colours
        yield 0, None, 0, 0
        # per ancestor of the next vertex, how many of its children are still
        # to come: [colour 1, all]; top is the innermost, the next one's parent
        stack, top = [], [0, 0]
        for i in range(0, len(word), width):
            k = word[i] + word[i + 1] if width == 2 else word[i]
            if k:
                top = [word[i], k]
                stack.append(top)
            else:  # a leaf: close the ancestors with no child to come, the root last
                while not top[1]:
                    if len(stack) < 2:
                        return
                    del stack[-1]
                    top = stack[-1]
            top[1] -= 1
            if top[0]:
                top[0] -= 1
                yield len(stack), colours[0], top[0], top[1]
            else:
                yield len(stack), colours[-1], 0, top[1]

    def __str__(self) -> str:
        # each vertex first closes the subtrees at its depth and deeper
        out, last = [], -1
        for depth, col, _, _ in self._vertices():
            out.append(")" * (last - depth + 1) + ("" if col is None else str(col)) + "(")
            last = depth
        return "".join(out) + ")" * (last + 1)

    def to_json_dict(self) -> dict:
        # a vertex at depth d is a child of the last one seen at depth d - 1:
        # lists[d] holds that one's child list, and lists[0] the root
        top: list = []
        lists = [top] + [None] * self.size
        for depth, col, _, _ in self._vertices():
            kids: list = []
            node = {"children": kids}
            lists[depth].append({"tree": node} if col is None else {"color": col, "tree": node})
            lists[depth + 1] = kids
        return top[0]["tree"]

    def __repr__(self) -> str:
        # the nested ``Name(children=(...))`` text from one scan: a vertex
        # opens its text, and is closed (with a trailing comma if it has one
        # child) before the next vertex at its depth or nearer the root
        word, width, name = self.word, self._width, type(self).__qualname__
        out, closers = [], []
        for i, (depth, col, _, rest) in enumerate(self._vertices()):
            while len(closers) > depth:
                out.append(closers.pop())
            kids = word[width * i] + word[width * i + 1] if width == 2 else word[i]
            close = ",))" if kids == 1 else "))"
            if col is None:
                out.append(f"{name}(children=(")
            else:
                out.append(f"({col}, {name}(children=(")
                close += ")"
            closers.append(close + ", " if rest else close)
        return "".join(out) + "".join(reversed(closers))


class PlanarTree(_Tree):
    """A rooted tree with ordered children; a leaf's word is (0,)."""

    __slots__ = ()
    _width = 1
    _colours = (None,)

    @property
    def children(self) -> tuple[PlanarTree, ...]:
        return tuple(self._subtrees())

    def _t_indices(self) -> tuple:
        """The t-indices of the tree's weight: each vertex's child count."""
        return (self.word,)


class BicolorPlanarTree(_Tree):
    """A planar tree whose edges carry colours, 1-edges before 0-edges; a
    leaf's word is (0, 0)."""

    __slots__ = ()
    _width = 2
    _colours = (1, 0)

    @staticmethod
    def _slot(entry, counts) -> tuple:
        colour, child = entry
        if colour not in (0, 1):
            raise ValueError(f"edge colour must be 0 or 1, got {colour}")
        if colour == 1 and counts[1]:
            raise ValueError("colour-1 children must precede colour-0 children")
        return (0 if colour else 1), child

    @property
    def children(self) -> tuple[tuple[int, BicolorPlanarTree], ...]:
        return tuple(zip([1] * self.word[0] + [0] * self.word[1], self._subtrees()))

    def _t_indices(self) -> tuple:
        """The t-indices of the tree's weight: colour-1 counts, then colour-0 ones."""
        return (self.word[::2], self.word[1::2])


# ---------------------------------------------------------------------------
# vertex order and elementary pieces


def vertex_order(tree: PlanarTree) -> tuple[tuple[int, ...], ...]:
    """Preorder numbering: entry k-1 lists the numbers of vertex k's children."""
    kids: list[tuple[int, ...]] = [()] * tree.size
    for blk in connected_from_tree(tree).blocks:
        kids[blk[0] - 1] = blk[1:]
    return tuple(kids)


def elementary_decomposition(tree: PlanarTree) -> tuple[tuple[int, int], ...]:
    """One (vertex number, child count) pair per vertex, leaves included."""
    return tuple(enumerate(tree.word, 1))


# ---------------------------------------------------------------------------
# enumeration


# A tree with n > 1 vertices is its root's first subtree, of s vertices,
# followed by the rest of the root's children: the children of a tree with
# n - s vertices.  Both enumerations run over s, then the first subtree,
# then the rest, so a tree's word is built from two words already listed.


@cache
def _trees(n: int) -> tuple[PlanarTree, ...]:
    if n == 1:
        return (PlanarTree(),)
    return tuple(PlanarTree._from_word((rest.word[0] + 1,) + first.word + rest.word[1:])
                 for s in range(1, n) for first in _trees(s) for rest in _trees(n - s))


def enumerate_planar_trees(n: int, *, limit: int | None = None) -> tuple[PlanarTree, ...]:
    """All planar rooted trees with n vertices; Catalan(n-1) of them."""
    check_limit("trees", n, limit)
    return _trees(n)


def enumerate_bicolor_elementary(n: int) -> tuple[BicolorPlanarTree, ...]:
    """The n one-level bicolor trees on n vertices, colour-1 count descending;
    n is capped like the planar trees."""
    check_limit("trees", n)
    return tuple(BicolorPlanarTree._from_word((k, n - 1 - k) + (0, 0) * (n - 1))
                 for k in range(n - 1, -1, -1))


@cache
def _bicolor(n: int) -> tuple[BicolorPlanarTree, ...]:
    """Per ordered forest of the root's children, every colouring, colour-1
    count descending; the rest of a forest is listed as the tree whose
    children it is, all of colour 1."""
    if n == 1:
        return (BicolorPlanarTree(),)
    out = []
    for s in range(1, n):
        rests = [r.word for r in _bicolor(n - s) if r.word[1] == 0]
        for first in _bicolor(s):
            for rest in rests:
                d, forest = rest[0] + 1, first.word + rest[2:]
                out += [BicolorPlanarTree._from_word((k, d - k) + forest) for k in range(d, -1, -1)]
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
    numbered by its other elements, and preorder numbering gives back the
    labels, so the word holds |B| - 1 at min B and 0 at every other vertex.
    """
    if sum(map(len, pi.blocks)) - len(pi.blocks) != pi.n - 1:
        raise NotConnected(f"{shorten(str(pi))} has more than one connected component")
    word = [0] * pi.n
    for blk in pi.blocks:
        word[blk[0] - 1] = len(blk) - 1
    return PlanarTree._from_word(tuple(word))


def connected_from_tree(tree: PlanarTree) -> NCLPartition:
    """Read the blocks of a connected linked partition off a planar tree.

    Each vertex with children contributes the block of its own number
    followed by its children's numbers, in preorder, which is canonical; a
    single vertex gives the one-point partition.  One scan of the word
    finds them: each vertex after the root is the next child of the
    innermost vertex still missing children.  A bicolor tree is refused.
    """
    if isinstance(tree, BicolorPlanarTree):
        raise NotConnected("expected a plain planar tree, got a bicolor one")
    word = tree.word
    blocks, missing = [], []  # missing: blocks still short of children, innermost last
    for v, k in enumerate(word, 1):
        if missing:
            missing[-1].append(v)
            if len(missing[-1]) > word[missing[-1][0] - 1]:
                missing.pop()
        if k:
            blocks.append([v])
            missing.append(blocks[-1])
    return NCLPartition(len(word), tuple(map(tuple, blocks)) or ((1,),))


# ---------------------------------------------------------------------------
# parity-split linked partitions <-> bicolor trees
#
# Each vertex owns a span of two positions per vertex of its subtree, read
# left to right: entered along a colour-c edge, it reads its first position,
# whose block lists the own positions of its colour-(1-c) children, then
# their spans, then its own position, listing its colour-c children, then
# theirs.  The root is entered along colour 0 at position 1.  Blocks are
# parity-pure, so an odd own position is entered along colour 1.


def bicolor_from_ncls(pi: NCLPartition) -> BicolorPlanarTree:
    """λ: the bicolor tree with n vertices of a parity-split linked
    partition of {1..2n}.

    One pass over the blocks from the right gives every span: a block's
    first child starts one past its minimum, each later one past its
    predecessor's end, and an own position's span ends with its last
    child's.  An explicit stack then visits the own positions in preorder.
    The paper's exterior-block construction is an independent reference in
    ``tests/oracles.py``.
    """
    if not is_ncls(pi):
        raise NotNclS(f"{shorten(str(pi))} is not parity-split")
    listed = [()] * (pi.n + 1)
    end = list(range(pi.n + 1))
    start = [0] * (pi.n + 1)
    for blk in reversed(pi.blocks):
        listed[blk[0]], at = blk[1:], blk[0]
        for child in blk[1:]:
            start[child], at = at + 1, end[child]
        end[blk[0]] = at
    root = end[1] + 1
    start[root] = 1
    word, stack = [], [root]
    while stack:
        own = stack.pop()
        if own & 1:
            ones, zeros = listed[own], listed[start[own]]
        else:
            ones, zeros = listed[start[own]], listed[own]
        word += (len(ones), len(zeros))
        stack += (ones + zeros)[::-1]
    assert len(word) == pi.n
    return BicolorPlanarTree._from_word(tuple(word))


def ncls_from_bicolor(tree: BicolorPlanarTree) -> NCLPartition:
    """Unfold a bicolor tree with n vertices into its partition of {1..2n}.

    One pass from the last vertex back finds where each vertex's colour-0
    subtrees start (``mid``) and its subtree ends (``end``) in the word.  A
    pass in preorder then places the children: colour-d ones are listed at
    the own position if d is the incoming colour, else at the first, and
    their spans follow it.  A first position's block is a singleton until
    it lists a child; an own position's exists only if it does, or at the
    root.  A planar tree with no colours is refused unless it is the one
    vertex, which reads as the bicolor leaf.
    """
    if isinstance(tree, PlanarTree) and tree.size > 1:
        raise NotNclS("expected a bicolor tree (colours missing)")
    word = (0, 0) if isinstance(tree, PlanarTree) else tree.word
    nv = len(word) // 2
    end, mid, done = [0] * nv, [0] * nv, []
    for v in range(nv - 1, -1, -1):  # the ends of v's children top the stack, first child's last
        ones = word[2 * v]
        k = ones + word[2 * v + 1]
        if k:
            end[v], mid[v] = done[-k], done[-ones] if ones else v + 1
            del done[-k:]
        else:
            end[v] = mid[v] = v + 1
        done.append(end[v])
    # the root reads position 1, its colour-1 spans, then its own position
    first, own, colour = [1] * nv, [2 * mid[0]] * nv, [0] * nv
    blocks: list = [None] * (2 * nv + 1)  # by minimum
    blocks[1], blocks[own[0]] = (1,), (own[0],)
    for v in range(nv):
        if end[v] == v + 1:  # a leaf lists no children
            continue
        c, u = colour[v], v + 1
        for d, stop in ((1, mid[v]), (0, end[v])):
            at = own[v] if d == c else first[v]
            blk, q = [at], at + 1
            while u < stop:
                first[u], colour[u], blocks[q] = q, d, (q,)
                # after its first position come its opposite-colour subtrees
                own[u] = q + 1 + 2 * (end[u] - mid[u] if d else mid[u] - u - 1)
                blk.append(own[u])
                q, u = q + 2 * (end[u] - u), end[u]
            if len(blk) > 1:
                blocks[at] = tuple(blk)
    result = NCLPartition(2 * nv, tuple(filter(None, blocks)))
    assert is_ncls(result)
    return result
