"""Non-crossing and non-crossing linked partitions of {1, ..., n}.

A partition is stored as a tuple of blocks, each block a strictly
increasing tuple of 1-based positions, blocks ordered by their minima
(minima are pairwise distinct in both families).  Plain non-crossing
partitions have pairwise disjoint blocks.  Linked partitions allow two
blocks to share a single element; the shared element must then be the
minimum of exactly one of the two blocks, and both blocks must have at
least two elements.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache, lru_cache
from itertools import chain, product

from .errors import (
    BadLink,
    BlockStraddlesSet,
    Crossing,
    Frozen,
    NonCrossingError,
    NotACover,
    NotAPartition,
    OddGroundSet,
    SizeMismatch,
)
from .limits import check_limit

Block = tuple[int, ...]
Blocks = tuple[Block, ...]


_set = object.__setattr__


class _PartitionBase(Frozen):
    """Shared behaviour of the two partition families: the ground set size
    ``n`` and the canonical ``blocks``, compared and hashed as ``(n, blocks)``."""

    __slots__ = _fields = ("n", "blocks")

    def __init__(self, n: int, blocks: Blocks):
        _set(self, "n", n)
        _set(self, "blocks", blocks)

    # spelled out, not looped over the fields: the Kreweras cache hashes
    # and compares partitions
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.blocks) == (other.n, other.blocks)

    def __hash__(self) -> int:
        return hash((self.n, self.blocks))

    def __str__(self) -> str:
        return "".join("(" + ",".join(map(str, b)) + ")" for b in self.blocks)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "blocks": [list(b) for b in self.blocks]}


class NCPartition(_PartitionBase):
    """A non-crossing partition.  Build one with :func:`validate_nc`."""

    __slots__ = ()


class NCLPartition(_PartitionBase):
    """A non-crossing linked partition.  Build one with :func:`validate_ncl`."""

    __slots__ = ()


AnyPartition = NCPartition | NCLPartition


# ---------------------------------------------------------------------------
# validation


def block_parents(n: int, blocks: Blocks) -> tuple[int | None, ...]:
    """The parent of each block, by index, from one left-to-right scan that
    checks that canonical ``blocks`` form a linked partition of {1..n}.

    The position arrays exist only once the block sizes add up to n.  Each
    position starts or resumes one block, or both (a link, starting a block
    of two or more); any other fault raises :class:`NotAPartition`.  A block
    hangs from the block whose non-minimal element it starts at, otherwise
    from the innermost block open there, otherwise from none.  A block that
    resumes under another open block crosses it: :class:`Crossing`.
    """
    size = sum(map(len, blocks))
    if size < n or not blocks[0] or blocks[0][0] < 1:
        raise NotAPartition("not a linked partition")
    starts: list[int | None] = [None] * (n + 1)
    resumes: list[int | None] = [None] * (n + 1)
    try:
        for i, blk in enumerate(blocks):
            elems = iter(blk)
            starts[next(elems)] = i
            for e in elems:
                resumes[e] = i
    except IndexError:  # an element above n
        raise NotAPartition("not a linked partition") from None
    # a position written twice leaves fewer filled slots than writes
    if starts.count(None) + resumes.count(None) + size != 2 * n + 2:
        raise NotAPartition("not a linked partition")
    parents: list[int | None] = [None] * len(blocks)
    stack: list[int | None] = [None]  # None: no block open
    for e in range(1, n + 1):
        x = resumes[e]
        s = starts[e]
        if x is not None:
            if s is not None and (s == x or len(blocks[s]) == 1):
                raise NotAPartition("not a linked partition")
            if stack[-1] != x:
                # the block on top started after min x and ends after e
                top = blocks[stack[-1]]
                raise Crossing((blocks[x][0], top[0], e, top[-1]))
            if blocks[x][-1] == e:
                stack.pop()
        elif s is None:
            raise NotAPartition("not a linked partition")
        if s is not None:
            parents[s] = x if x is not None else stack[-1]
            if len(blocks[s]) > 1:
                stack.append(s)
    return tuple(parents)


def _name_fault(n: int, raw: list, linked: bool) -> None:
    """On the error path only: raise the error of the first fault, other
    than a crossing, in the order: each raw block in input order, then an
    element in two blocks (unless ``linked``), the cover and the links."""
    exc = BadLink if linked else NotAPartition
    cleaned = []
    for blk in raw:
        elems = tuple(sorted(blk))
        if not elems:
            raise exc("empty block")
        if len(set(elems)) != len(elems):
            raise exc(f"block {list(blk)} repeats an element")
        if elems[0] < 1 or elems[-1] > n:
            raise exc(f"block {list(blk)} leaves the ground set 1..{n}")
        cleaned.append(elems)
    owners: dict[int, list[Block]] = {}
    for blk in sorted(cleaned):
        for e in blk:
            held = owners.setdefault(e, [])
            if held and not linked:
                raise NotAPartition(f"element {e} appears in two blocks")
            held.append(blk)
    if len(owners) != n:
        first = next(e for e in range(1, n + 1) if e not in owners)
        raise (NotACover if linked else NotAPartition)(
            f"{n - len(owners)} of the elements 1..{n} are not covered, the smallest is {first}")
    for e, held in owners.items():
        if len(held) > 1:
            minimal = sum(blk[0] == e for blk in held)
            if len(held) > 2 or minimal != 1 or min(map(len, held)) < 2:
                raise BadLink(f"element {e} lies in {len(held)} blocks, minimal in {minimal}: "
                              "a link joins two blocks of two or more at the minimum of one")


def _validate(kind: type[AnyPartition], n: int, blocks) -> AnyPartition:
    linked = kind is NCLPartition
    if n < 1:
        raise (NotACover if linked else NotAPartition)(f"ground set size must be positive, got {n}")
    raw = list(blocks)
    try:
        # canonical order: ascending minima (distinct once valid), then the rest
        canon = tuple(sorted(map(tuple, map(sorted, raw))))
        block_parents(n, canon)
        # a linked partition has one element more than n per link
        if not linked and sum(map(len, canon)) != n:
            raise NotAPartition("an element lies in two blocks")
    except (NonCrossingError, TypeError):
        _name_fault(n, raw, linked)
        raise
    return kind(n, canon)


def validate_nc(n: int, blocks) -> NCPartition:
    """Validate raw blocks as a non-crossing partition of {1..n} in the
    scan of :func:`block_parents`, which allocates after the cover count.

    Raises :class:`NotAPartition` for a bad block (the first in input order),
    then for blocks that overlap or leave a gap, and then :class:`Crossing`
    (with a witness) when two blocks interleave.
    """
    return _validate(NCPartition, n, blocks)


def validate_ncl(n: int, blocks) -> NCLPartition:
    """Validate raw blocks as a non-crossing linked partition of {1..n} in
    the scan of :func:`block_parents`, which allocates after the cover count.

    Raises :class:`BadLink` for a bad block (the first in input order), then
    :class:`NotACover` when the union misses part of the ground set,
    :class:`BadLink` when a shared element breaks the linking rule of the
    module docstring, and :class:`Crossing` when two blocks interleave.
    """
    return _validate(NCLPartition, n, blocks)


# ---------------------------------------------------------------------------
# enumeration


@cache
def _first_tails(prev: int, hi: int) -> tuple[Block, ...]:
    """Every increasing tuple over {prev+1..hi}, depth first: (), (prev+1,),
    (prev+1, prev+2), ..., (prev+2,), ...; the lexicographic order of the
    first blocks that continue after ``prev``."""
    return ((),) + tuple((a,) + t for a in range(prev + 1, hi + 1)
                         for t in _first_tails(a, hi))


def _walk(lo: int, hi: int, linked: bool, top: bool = False) -> Iterator[Blocks]:
    """Yield every partition of {lo..hi} (NCL when ``linked``, else NC) as
    its canonical block tuple, in lexicographic order, one at a time.

    The first block (lo, a_1, ..., a_k) runs through its tails depth first.
    The gap between lo and a_1 (or hi + 1) holds any partition of its own;
    the gap after each a_i comes from :func:`_gap`.  Every gap lies wholly
    after the one before it, so joining one filling of each gap in position
    order is canonical, and running the earlier gaps slowest keeps the
    output sorted.  The fillings are inner intervals, taken from the cache
    of :func:`_interval`; nothing of {lo..hi} itself is kept.

    A ``top`` walk walks its widest gap, {lo+1..hi}, too: for the first
    block (lo,), and in NCL for (lo, lo+1), whose gap opens a block at lo+1
    or fills {lo+2..hi}.  So streaming NC(n) or NCL(n) never caches {2..n}.
    """
    if lo > hi:
        yield ()
        return
    for tail in _first_tails(lo, hi):
        ends = tail + (hi + 1,)
        if top and not tail:
            gaps = [_walk(lo + 1, hi, linked)]
        elif top and linked and tail == (lo + 1,):
            opened = (p for p in _walk(lo + 1, hi, linked) if len(p[0]) > 1)
            gaps = [chain(opened, _interval(lo + 2, hi, linked))]
        else:
            gaps = [_interval(lo + 1, ends[0] - 1, linked)]
            gaps += [_gap(a, b - 1, linked) for a, b in zip(tail, ends[1:])]
        # an empty gap adds nothing; the earlier gaps join into heads, and
        # the last one streams behind each head
        *inner, last = [g for g in gaps if g != ((),)] or [((),)]
        heads = [((lo,) + tail,)]
        for gap in inner:
            heads = [h + g for h in heads for g in gap]
        for h in heads:
            for g in last:
                yield h + g


@cache
def _interval(lo: int, hi: int, linked: bool) -> tuple[Blocks, ...]:
    """Every partition of {lo..hi} from :func:`_walk`, kept.  Only the gaps
    of an enclosing walk ask for one, so lo >= 2, and the top-level walk of
    NC(n) or NCL(n) never asks for {2..n}."""
    return tuple(_walk(lo, hi, linked))


@cache
def _gap(a: int, end: int, linked: bool) -> tuple[Blocks, ...]:
    """The fillings of {a+1..end} after an element ``a`` of a first block.

    In NCL a block of two or more may also start at ``a`` itself, linked to
    the first block there; those fillings of {a..end} sort first.
    """
    rest = _interval(a + 1, end, linked)
    if not linked:
        return rest
    return tuple(p for p in _interval(a, end, linked) if len(p[0]) > 1) + rest


def _stream(kind: type[AnyPartition], n: int, blocks) -> Iterator[AnyPartition]:
    """The canonical block tuples ``blocks`` of {1..n} as partitions of ``kind``."""
    return (kind(n, b) for b in blocks)


def iter_blocks(n: int, linked: bool, *, limit: int | None = None) -> Iterator[Blocks]:
    """NCL(n) when ``linked``, else NC(n), as canonical block tuples in the
    order of :func:`enumerate_ncl`/:func:`enumerate_nc`, one at a time and
    kept nowhere: no partition object is built.  The ``ncl`` or ``nc`` cap
    is checked here, before the first one."""
    check_limit("ncl" if linked else "nc", n, limit)
    return _walk(1, n, linked, top=True)


def iter_nc(n: int, *, limit: int | None = None) -> Iterator[NCPartition]:
    """The partitions of :func:`enumerate_nc`, streamed by :func:`iter_blocks`."""
    return _stream(NCPartition, n, iter_blocks(n, False, limit=limit))


# NC(n) and NCL(n) are kept once built: some callers read one size many
# times (the validator tests once per sampled case), and collecting the
# stream on every call doubled the test suite's time.  A caller that reads
# a size once streams it with iter_nc/iter_ncl/iter_blocks instead.
@cache
def _nc_all(n: int) -> tuple[NCPartition, ...]:
    return tuple(_stream(NCPartition, n, _walk(1, n, False, top=True)))


def enumerate_nc(n: int, *, limit: int | None = None) -> tuple[NCPartition, ...]:
    """All non-crossing partitions of {1..n}, lexicographically sorted."""
    check_limit("nc", n, limit)
    return _nc_all(n)


def iter_ncl(n: int, *, limit: int | None = None) -> Iterator[NCLPartition]:
    """The partitions of :func:`enumerate_ncl`, streamed by :func:`iter_blocks`."""
    return _stream(NCLPartition, n, iter_blocks(n, True, limit=limit))


@cache  # kept, like _nc_all
def _ncl_all(n: int) -> tuple[NCLPartition, ...]:
    return tuple(_stream(NCLPartition, n, _walk(1, n, True, top=True)))


def enumerate_ncl(n: int, *, limit: int | None = None) -> tuple[NCLPartition, ...]:
    """All non-crossing linked partitions of {1..n}, lexicographically sorted.

    Generated in order by the interval recursion of NC(n), in which the gap
    after each later element of a first block may also open a block of two
    or more linked there; counted by the large Schroeder numbers.
    """
    check_limit("ncl", n, limit)
    return _ncl_all(n)


@lru_cache(maxsize=1024)  # verify all leaves 83: NCS(1..5) blocks, class-sum blocks, their runs
def _block_class(blk: Block) -> tuple[Blocks, ...]:
    """Every linked partition of the elements of ``blk`` with one component,
    as canonical block tuples.

    The first block holds blk[0] and blk[1], since nothing between them
    could link to it, and any later positions.  The run from each later
    position up to the next (or the end) is connected on its own, linked to
    the first block at the run's first element.  The runs lie in position
    order, so joining one member of each after the first block is canonical.
    """
    if len(blk) == 1:
        return ((blk,),)
    out = []
    for tail in _first_tails(1, len(blk) - 1):
        cuts = (1,) + tail + (len(blk),)
        runs = [_block_class(blk[i:j]) for i, j in zip(cuts, cuts[1:]) if j - i > 1]
        first = ((blk[0],) + tuple(blk[i] for i in cuts[:-1]),)
        out += [first + tuple(chain.from_iterable(combo)) for combo in product(*runs)]
    return tuple(out)


def _class_union(n: int, gammas) -> tuple[NCLPartition, ...]:
    """The class members of every partition in ``gammas``, sorted once."""
    out = sorted(tuple(sorted(chain.from_iterable(combo)))
                 for g in gammas for combo in product(*map(_block_class, g.blocks)))
    return tuple(NCLPartition(n, blocks) for blocks in out)


def _require_disjoint(gamma: AnyPartition) -> None:
    """Raise :class:`NotAPartition`, naming an element that lies in two
    blocks, when the block sizes of ``gamma`` do not add up to n: a linked
    partition with links is no partition."""
    if sum(map(len, gamma.blocks)) == gamma.n:
        return
    seen: set[int] = set()
    for e in chain.from_iterable(gamma.blocks):
        if e in seen:
            raise NotAPartition(f"{gamma} is not a partition: {e} lies in two blocks")
        seen.add(e)
    raise NotAPartition(f"{gamma} is not a partition of 1..{gamma.n}")


def class_members(gamma: NCPartition, *, limit: int | None = None) -> tuple[NCLPartition, ...]:
    """All linked partitions whose connected components are ``gamma``.

    The class factors over the blocks of ``gamma``: each block carries an
    independent connected class, built by recursion on the block's own
    elements.  The class size is the product of Catalan(k - 1) over block
    sizes k.  ``gamma`` must be a partition, a linked one only without
    links, and block sizes are capped like planar-tree enumeration, both
    checked before any member is built.
    """
    _require_disjoint(gamma)
    for blk in gamma.blocks:
        check_limit("trees", len(blk), limit)
    return _class_union(gamma.n, (gamma,))


# ---------------------------------------------------------------------------
# order, connectivity, restriction


def leq(sigma: AnyPartition, pi: AnyPartition) -> bool:
    """Is every block of ``pi`` a union of blocks of ``sigma``?"""
    if sigma.n != pi.n:
        raise SizeMismatch(f"ground sets differ: {sigma.n} vs {pi.n}")
    for blk in pi.blocks:
        target = set(blk)
        covered: set[int] = set()
        for d in sigma.blocks:
            if target.issuperset(d):
                covered.update(d)
        if covered != target:
            return False
    return True


def connected_components(pi: NCLPartition) -> NCPartition:
    """The non-crossing partition whose blocks are the components of ``pi``.

    Two positions are connected when a chain of pairwise-overlapping blocks
    joins them.  In block order, a block whose minimum is a non-minimal
    position of an earlier block joins that block's component, and any
    other block opens one at its minimum.  Reading positions 1..n by the
    minimum of their component then gives the components canonically.
    """
    least = list(range(pi.n + 1))
    for blk in pi.blocks:
        m = least[blk[0]]
        for e in blk[1:]:
            least[e] = m
    comps: dict[int, list[int]] = {}
    for e in range(1, pi.n + 1):
        comps.setdefault(least[e], []).append(e)
    return NCPartition(pi.n, tuple(map(tuple, comps.values())))


def exterior_blocks(pi: NCLPartition) -> Blocks:
    """Blocks that are neither nested below another block nor share their
    minimum with one: the blocks without a parent."""
    parents = block_parents(pi.n, pi.blocks)
    return tuple(blk for blk, p in zip(pi.blocks, parents) if p is None)


def non_minimal_elements(pi: NCLPartition) -> frozenset[int]:
    """Positions that are the minimum of no block."""
    minima = {blk[0] for blk in pi.blocks}
    return frozenset(range(1, pi.n + 1)) - minima


def restrict(pi: AnyPartition, subset) -> AnyPartition:
    """Restrict to ``subset`` and relabel order-isomorphically to {1..|S|}.

    The subset must be a nonempty set of positions in 1..n, and every block
    must lie inside it or be disjoint from it.  The relabel is monotone, so
    the kept blocks stay in canonical order.
    """
    positions = tuple(sorted(subset))
    index = {e: i + 1 for i, e in enumerate(positions)}
    if not positions or positions[0] < 1 or positions[-1] > pi.n or len(index) < len(positions):
        raise SizeMismatch(f"{list(positions)} is not a nonempty set of positions in 1..{pi.n}")
    kept = []
    for blk in pi.blocks:
        inside = [e in index for e in blk]
        if all(inside):
            kept.append(tuple(index[e] for e in blk))
        elif any(inside):
            raise BlockStraddlesSet(f"block {blk} straddles {positions}")
    return type(pi)(len(positions), tuple(kept))


# ---------------------------------------------------------------------------
# Kreweras complement and the parity-split families


@lru_cache(maxsize=4096)  # holds NC(1..8), 2,055 partitions
def kreweras(gamma: NCPartition) -> NCPartition:
    """The Kreweras complement.

    Interleave a barred copy behind every position; the complement is the
    coarsest partition of the bars whose union with ``gamma`` stays
    non-crossing.  Its blocks are the cycles of pi^-1 (1 2 ... n), where pi
    runs through each block of ``gamma`` as an increasing cycle.  Block
    counts of a partition and its complement add up to n + 1.  A linked
    partition with links is refused before anything is cached.
    """
    _require_disjoint(gamma)
    n = gamma.n
    before = [0] * (n + 1)
    for blk in gamma.blocks:
        prev = blk[-1]
        for b in blk:
            before[b] = prev
            prev = b
    # walk each cycle e -> pi^-1(e + 1), read mod n, from its least element:
    # it comes out increasing, and the cycles in order of their minima
    seen = [False] * (n + 1)
    blocks = []
    for start in range(1, n + 1):
        if not seen[start]:
            cycle = []
            e = start
            while not seen[e]:
                seen[e] = True
                cycle.append(e)
                e = before[e % n + 1]
            blocks.append(tuple(cycle))
    return NCPartition(n, tuple(blocks))


def _parity_pure(blocks: Blocks) -> bool:
    # plain loops: no set or generator per block on the λ round trip
    for blk in blocks:
        parity = blk[0] & 1
        for e in blk:
            if e & 1 != parity:
                return False
    return True


def is_ncs(gamma: NCPartition) -> bool:
    """Membership in the parity-split family on an even ground set {1..2n}.

    With parity-pure blocks the even part refines K(odd part); they are equal
    exactly when gamma has n + 1 blocks, as |sigma| + |K(sigma)| = n + 1.
    """
    if gamma.n % 2:
        raise OddGroundSet(f"ground set size {gamma.n} is odd")
    return len(gamma.blocks) == gamma.n // 2 + 1 and _parity_pure(gamma.blocks)


def is_ncls(pi: NCLPartition) -> bool:
    """Do the connected components of ``pi`` form a parity-split partition?

    The links (min B, e) form a forest, as a position is non-minimal in at
    most one block, so there are n - sum(|B| - 1) components to count.
    """
    links = sum(map(len, pi.blocks)) - len(pi.blocks)
    return pi.n % 2 == 0 and links == pi.n // 2 - 1 and _parity_pure(pi.blocks)


@cache
def _ncs_all(n: int) -> tuple[NCPartition, ...]:
    out = []
    for gm in _nc_all(n):
        gp = kreweras(gm)
        blocks = [tuple(2 * e - 1 for e in b) for b in gm.blocks]
        blocks += [tuple(2 * e for e in b) for b in gp.blocks]
        out.append(NCPartition(2 * n, tuple(sorted(blocks))))
    out.sort(key=lambda p: p.blocks)
    return tuple(out)


def enumerate_ncs(n: int, *, limit: int | None = None) -> tuple[NCPartition, ...]:
    """All parity-split non-crossing partitions of {1..2n}.

    Exactly the interleavings of a partition on the odd positions with its
    Kreweras complement on the even positions; there are Catalan(n) of them.
    """
    check_limit("ncs", n, limit)
    return _ncs_all(n)


@cache
def _ncls_all(n: int) -> tuple[NCLPartition, ...]:
    return _class_union(2 * n, _ncs_all(n))


def enumerate_ncls(n: int, *, limit: int | None = None) -> tuple[NCLPartition, ...]:
    """All linked partitions of {1..2n} whose components are parity-split."""
    check_limit("ncls", n, limit)
    return _ncls_all(n)
