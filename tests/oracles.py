"""Independent brute-force oracles for the test suite.

Everything here is deliberately written from first principles (raw
search plus the defining conditions) so that the production
enumerations and transforms are checked against a second, unrelated
computation path.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product
from math import comb, prod

from noncrossing.errors import (
    BadLink,
    Crossing,
    NotACover,
    NotAPartition,
    NotNclS,
    OddGroundSet,
    OrderTooLow,
)
from noncrossing.freeness import mixed_cumulant
from noncrossing.partitions import (
    NCLPartition,
    NCPartition,
    class_members,
    enumerate_nc,
    enumerate_ncl,
    enumerate_ncs,
    exterior_blocks,
    is_ncls,
    kreweras,
    non_minimal_elements,
    restrict,
    validate_nc,
    validate_ncl,
)
from noncrossing.trees import (
    BicolorPlanarTree,
    PlanarTree,
    connected_from_tree,
    enumerate_planar_trees,
)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def crosses(a, b) -> bool:
    """Four-point crossing test of two blocks, written independently of the
    package."""
    for i in a:
        for p in a:
            for k in b:
                for q in b:
                    if i < k < p < q or k < i < q < p:
                        return True
    return False


def has_crossing(blocks) -> bool:
    return any(crosses(a, b) for a, b in combinations(blocks, 2))


def brute_set_partitions(n: int):
    """Every set partition of {1..n} as a list of sorted tuples."""
    parts = [[]]
    for k in range(1, n + 1):
        nxt = []
        for p in parts:
            for i in range(len(p)):
                nxt.append(p[:i] + [p[i] + [k]] + p[i + 1 :])
            nxt.append(p + [[k]])
        parts = nxt
    return [tuple(sorted(tuple(b) for b in p)) for p in parts]


def brute_nc_blocklists(n: int):
    """Non-crossing set partitions by filtering all set partitions."""
    return [p for p in brute_set_partitions(n) if not has_crossing(p)]


def brute_ncl(n: int):
    """All non-crossing linked partitions, by raw generation + validation.

    Element k may join one open block, start a fresh block, or do both at
    once (the link case); every final candidate goes through the validator.
    """
    found = set()

    def grow(k, blocks):
        if k > n:
            try:
                pi = validate_ncl(n, [tuple(b) for b in blocks])
            except (NotACover, Crossing, BadLink, NotAPartition):
                return
            found.add(pi)
            return
        for i in range(len(blocks)):
            blocks[i].append(k)
            grow(k + 1, blocks)
            blocks[i].pop()
        blocks.append([k])
        grow(k + 1, blocks)
        blocks.pop()
        for i in range(len(blocks)):
            blocks[i].append(k)
            blocks.append([k])
            grow(k + 1, blocks)
            blocks.pop()
            blocks[i].pop()

    grow(1, [])
    return found


def interleaved_union_ok(gamma_blocks, bar_blocks, n: int) -> bool:
    """Is the union of a partition (odd slots) and a candidate complement
    (even slots) non-crossing on 2n points?"""
    blocks = [tuple(2 * e - 1 for e in b) for b in gamma_blocks]
    blocks += [tuple(2 * e for e in b) for b in bar_blocks]
    return not has_crossing(blocks)


def refines(finer, coarser) -> bool:
    for blk in coarser:
        target = set(blk)
        covered = set()
        for d in finer:
            if target.issuperset(d):
                covered.update(d)
        if covered != target:
            return False
    return True


@cache
def _brute_nc_on_evens(n: int) -> tuple:
    """Each non-crossing partition of {1..n} with its copy on 2, 4, ..., 2n."""
    return tuple((c, [tuple(2 * e for e in b) for b in c]) for c in brute_nc_blocklists(n))


def kreweras_by_search(gamma_blocks, n: int):
    """The unique coarsest compatible complement, by exhaustive search.

    ``gamma`` and every candidate are non-crossing, so their interleaved
    union can only cross between one block of each.  The coarsest candidate
    is the unique maximum when every other candidate refines it.
    """
    odd = [tuple(2 * e - 1 for e in b) for b in gamma_blocks]
    candidates = [c for c, evens in _brute_nc_on_evens(n)
                  if not any(crosses(a, b) for a in odd for b in evens)]
    coarsest = min(candidates, key=len)
    assert all(refines(other, coarsest) for other in candidates), gamma_blocks
    return coarsest


def _join(n: int, links) -> tuple:
    """Blocks of {1..n} after merging the two ends of every link (union-find)."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        parent[find(b)] = find(a)
    groups: dict[int, list[int]] = {}
    for e in range(1, n + 1):
        groups.setdefault(find(e), []).append(e)
    return tuple(sorted(tuple(g) for g in groups.values()))


def components_by_union_find(pi: NCLPartition) -> NCPartition:
    """The union-find over the links (min B, e): the reference for the
    block-order pass of ``partitions.connected_components``."""
    links = ((blk[0], e) for blk in pi.blocks for e in blk[1:])
    return NCPartition(pi.n, _join(pi.n, links))


def kreweras_by_union_find(gamma: NCPartition) -> NCPartition:
    """The cycles of pi^-1 (1 2 ... n) as a union-find over the links
    (e, pi^-1(e + 1)), read mod n, with the groups sorted: the reference for
    the cycle walk of ``partitions.kreweras``."""
    n = gamma.n
    before = {b: a for blk in gamma.blocks for a, b in zip(blk[-1:] + blk[:-1], blk)}
    return NCPartition(n, _join(n, ((e, before[e % n + 1]) for e in range(1, n + 1))))


def interleaved_compatible_by_validation(gamma, bars) -> bool:
    """Is ``gamma`` on the odd slots 2e - 1 together with ``bars`` on the even
    slots 2e a non-crossing partition of 2n points?  Builds the interleaved
    block list and runs the full validator: the reference for the bitmask
    crossing test of the Kreweras maximality check."""
    blocks = [tuple(2 * e - 1 for e in b) for b in gamma.blocks]
    blocks += [tuple(2 * e for e in b) for b in bars.blocks]
    try:
        validate_nc(2 * gamma.n, blocks)
    except (Crossing, NotAPartition):
        return False
    return True


# Membership by building the structure: the references for the block counts
# behind ``partitions.is_ncs``, ``partitions.is_ncls`` and the connectivity
# guard of ``trees.tree_from_connected``.


def is_ncs_by_kreweras(gamma: NCPartition) -> bool:
    """Parity-pure blocks, and the even part read on {1..n} equals the
    Kreweras complement of the odd part."""
    if gamma.n % 2:
        raise OddGroundSet(f"ground set size {gamma.n} is odd")
    if any(len({e % 2 for e in blk}) != 1 for blk in gamma.blocks):
        return False
    odd = restrict(gamma, range(1, gamma.n, 2))
    even = restrict(gamma, range(2, gamma.n + 1, 2))
    return even == kreweras(odd)


def is_ncls_by_components(pi: NCLPartition) -> bool:
    """The union-find components of ``pi`` pass :func:`is_ncs_by_kreweras`."""
    return pi.n % 2 == 0 and is_ncs_by_kreweras(components_by_union_find(pi))


def connected_by_union_find(pi: NCLPartition) -> bool:
    return len(components_by_union_find(pi).blocks) == 1


# Block structure rule by rule over pairs of blocks: the references for the
# one-scan ``partitions.block_parents`` behind validation, exterior blocks
# and render.


def _sorted_blocks(n: int, blocks):
    """Raw blocks as sorted lists, or None when one is empty, repeats an
    element or leaves 1..n."""
    out = [sorted(b) for b in blocks]
    if any(not b or len(set(b)) != len(b) or b[0] < 1 or b[-1] > n for b in out):
        return None
    return out


def nc_error_by_pairs(n: int, blocks):
    """The error class of validating raw blocks as a non-crossing partition
    of {1..n}, or None when they are one."""
    out = _sorted_blocks(n, blocks) if n >= 1 else None
    if out is None or any(set(a) & set(b) for a, b in combinations(out, 2)):
        return NotAPartition
    if set().union(*out) != set(range(1, n + 1)):
        return NotAPartition
    return Crossing if has_crossing(out) else None


def ncl_error_by_pairs(n: int, blocks):
    """The error class of validating raw blocks as a non-crossing linked
    partition of {1..n}, or None when they are one: two blocks may share one
    element, the minimum of exactly one of them, and neither a singleton."""
    if n < 1:
        return NotACover
    out = _sorted_blocks(n, blocks)
    if out is None:
        return BadLink
    if set().union(*out) != set(range(1, n + 1)):
        return NotACover
    for a, b in combinations(out, 2):
        shared = set(a) & set(b)
        if len(shared) > 1:
            return BadLink
        if shared:
            (j,) = shared
            if len(a) < 2 or len(b) < 2 or (a[0] == j) == (b[0] == j):
                return BadLink
    return Crossing if has_crossing(out) else None


# The validators as four passes over the blocks (clean, index, cover, then
# a crossing scan over fresh position arrays): the reference for the one
# position scan of ``partitions.block_parents``, on classes, messages and
# crossing witnesses alike.


def _clean_blocks(n: int, raw, exc):
    """Sort raw blocks into canonical form, checking element sanity."""
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
    # canonical order: ascending minima (distinct in every valid partition),
    # ties broken by the rest of the tuple
    return tuple(sorted(cleaned))


def _check_cover(n: int, covered, exc) -> None:
    """``covered`` lies inside 1..n, so it covers 1..n exactly when it has
    n elements; the message names the count and the smallest gap only."""
    if len(covered) != n:
        first = next(e for e in range(1, n + 1) if e not in covered)
        raise exc(f"{n - len(covered)} of the elements 1..{n} are not covered, "
                  f"the smallest is {first}")


def _crossing_scan(n: int, blocks) -> None:
    """Raise :class:`Crossing` when a block resumes under another open one,
    for canonical blocks that already partition 1..n."""
    starts = [None] * (n + 1)
    resumes = [None] * (n + 1)
    for i, blk in enumerate(blocks):
        starts[blk[0]] = i
        for e in blk[1:]:
            resumes[e] = i
    stack = []
    for e in range(1, n + 1):
        x = resumes[e]
        if x is not None:
            if stack[-1] != x:
                top = blocks[stack[-1]]
                raise Crossing((blocks[x][0], top[0], e, top[-1]))
            if blocks[x][-1] == e:
                stack.pop()
        s = starts[e]
        if s is not None and len(blocks[s]) > 1:
            stack.append(s)


def validate_nc_by_passes(n: int, blocks) -> NCPartition:
    if n < 1:
        raise NotAPartition(f"ground set size must be positive, got {n}")
    canon = _clean_blocks(n, blocks, NotAPartition)
    seen = set()
    for e in chain.from_iterable(canon):
        if e in seen:
            raise NotAPartition(f"element {e} appears in two blocks")
        seen.add(e)
    _check_cover(n, seen, NotAPartition)
    _crossing_scan(n, canon)
    return NCPartition(n, canon)


def validate_ncl_by_passes(n: int, blocks) -> NCLPartition:
    if n < 1:
        raise NotACover(f"ground set size must be positive, got {n}")
    canon = _clean_blocks(n, blocks, BadLink)
    owners = {}
    for blk in canon:
        for e in blk:
            owners.setdefault(e, []).append(blk)
    _check_cover(n, owners.keys(), NotACover)
    for e, held in owners.items():
        if len(held) > 1:
            minimal = sum(blk[0] == e for blk in held)
            if len(held) > 2 or minimal != 1 or min(map(len, held)) < 2:
                raise BadLink(f"element {e} lies in {len(held)} blocks, minimal in {minimal}: "
                              "a link joins two blocks of two or more at the minimum of one")
    _crossing_scan(n, canon)
    return NCLPartition(n, canon)


def exterior_by_pairs(pi: NCLPartition):
    """Blocks whose minimum lies in no other block and whose span no other
    block encloses."""
    return tuple(
        blk for blk in pi.blocks
        if not any(o != blk and (blk[0] in o or o[0] < blk[0] and blk[-1] < o[-1])
                   for o in pi.blocks)
    )


def render_by_pairs(pi) -> str:
    """The arc diagram with each block's height found from every block below
    it: those inside its span, or hanging from one of its non-minimal
    elements."""
    blocks = pi.blocks

    def sits_under(inner, outer) -> bool:
        if inner == outer:
            return False
        if outer[0] <= inner[0] and inner[-1] <= outer[-1]:
            return True
        return inner[0] in outer and inner[0] != outer[0]

    @cache
    def height(blk) -> int:
        return 1 + max((height(b) for b in blocks if sits_under(b, blk)), default=0)

    col_w = max(3, len(str(pi.n)) + 1)
    top = max(height(blk) for blk in blocks)
    grid = [[" "] * (pi.n * col_w) for _ in range(top)]
    for blk in blocks:
        row = top - height(blk)
        for c in range((blk[0] - 1) * col_w + 2, (blk[-1] - 1) * col_w + 1):
            grid[row][c] = "_"
        for e in blk:
            for r in range(row, top):
                if grid[r][(e - 1) * col_w + 1] in " _":
                    grid[r][(e - 1) * col_w + 1] = "|"
    lines = ["".join(row).rstrip() for row in grid]
    lines.append("".join(str(e).center(col_w) for e in range(1, pi.n + 1)).rstrip())
    return "\n".join(lines)


def moment_by_linked_sum(t_values, n: int, linked_partitions) -> Fraction:
    """Direct evaluation of a moment as a linked-partition sum."""
    total = Fraction(0)
    for pi in linked_partitions:
        term = prod(Fraction(t_values[len(b) - 1]) for b in pi.blocks)
        minima = {b[0] for b in pi.blocks}
        term *= Fraction(t_values[0]) ** (n - len(minima))
        total += term
    return total


def moment_by_nc_sum(k_values, n: int, nc_partitions) -> Fraction:
    total = Fraction(0)
    for g in nc_partitions:
        total += prod(Fraction(k_values[len(b) - 1]) for b in g.blocks)
    return total


# The series solves in ``Fraction``s, one exact operation per term: the
# references for the reduced-pair solves in ``transforms``.


def power_row_by_fractions(rows, a) -> None:
    """Append row d = len(rows) of the table [z^d] A^j, j = 0..d, where
    A = a_1 z + a_2 z^2 + ..."""
    d = len(rows)
    row = [Fraction(int(d == 0))]
    for j in range(1, d + 1):
        # A^j = A * A^(j-1), and A^(j-1) starts at z^(j-1)
        row.append(sum(a[i - 1] * rows[d - i][j - 1] for i in range(1, d - j + 2)))
    rows.append(row)


def solve_by_fractions(values, from_moments: bool, a, weights) -> tuple:
    """Solve m_n = sum over i <= n of x_i w(n, i) for the x's (given the
    moments) or the moments (given the x's); the weights of order n are
    ``weights(row)`` for row len(a) of the power table of ``a``, which
    grows by m_n after step n."""
    x, m = ([], list(values)) if from_moments else (list(values), [])
    rows = []
    for n in range(1, len(values) + 1):
        while len(rows) <= len(a):
            power_row_by_fractions(rows, a)
        w = weights(rows[len(a)])
        rest = sum(xi * wi for xi, wi in zip(x[: n - 1], w))
        if from_moments:
            x.append((m[n - 1] - rest) / w[n - 1])
        else:
            m.append(rest + x[n - 1] * w[n - 1])
        a.append(m[n - 1])
    return tuple(x if from_moments else m)


def cumulant_solve_by_fractions(values, from_moments: bool) -> tuple:
    """M = R(z(1+M)) read off at z^n."""
    return solve_by_fractions(values, from_moments, [Fraction(1)], lambda row: row[1:])


def tcoeff_solve_by_fractions(values, from_moments: bool) -> tuple:
    """M = z(1+M) T(M) read off at z^n."""
    return solve_by_fractions(values, from_moments, [],
                              lambda row: [p + q for p, q in zip(row, row[1:] + [0])])


def cauchy_product_by_fractions(x_values, y_values) -> tuple:
    """The product of two series prefixes of one length, one ``Fraction``
    operation per term: the reference for ``t_convolve``."""
    n = len(x_values)
    out = [Fraction(0)] * n
    for i, a in enumerate(x_values):
        for j in range(n - i):
            out[i + j] += a * y_values[j]
    return tuple(out)


# Per-object sums: each object's weight multiplied out on its own, the
# references for the monomial-profile evaluation in ``transforms``.


def t_partition_weight(pi: NCLPartition, t_values) -> Fraction:
    """t_(|B|-1) per block times t_0 per non-minimal position."""
    factors = [Fraction(t_values[len(blk) - 1]) for blk in pi.blocks]
    factors.append(Fraction(t_values[0]) ** (pi.n - len(pi.blocks)))
    return prod(factors)


def class_sum(t_values, n: int) -> Fraction:
    """Sum of t-weights over the linked partitions connecting {1..n}."""
    one_block = validate_nc(n, [list(range(1, n + 1))])
    return sum((t_partition_weight(pi, t_values) for pi in class_members(one_block)),
               Fraction(0))


def tree_weight(tree, t_values) -> Fraction:
    """t_(child count) per vertex, by a direct walk."""
    return Fraction(t_values[len(tree.children)]) * prod(
        tree_weight(child, t_values) for child in tree.children)


def tree_sum(t_values, n: int) -> Fraction:
    return sum((tree_weight(tree, t_values) for tree in enumerate_planar_trees(n)),
               Fraction(0))


def bicolor_weight(tree: BicolorPlanarTree, x_values, y_values) -> Fraction:
    """x_k y_(d-k) per vertex with d children, k of colour 1, by a direct walk."""
    k = sum(1 for colour, _ in tree.children if colour == 1)
    own = Fraction(x_values[k]) * Fraction(y_values[len(tree.children) - k])
    return own * prod(bicolor_weight(child, x_values, y_values)
                      for _, child in tree.children)


def bicolor_sum(trees, x_values, y_values) -> Fraction:
    return sum((bicolor_weight(tree, x_values, y_values) for tree in trees), Fraction(0))


def kreweras_sum(pairs, kx_values, ky_values) -> Fraction:
    """Sum over (gamma, complement) pairs of k^x over the blocks of gamma
    times k^y over the blocks of its Kreweras complement."""
    total = Fraction(0)
    for gamma, complement in pairs:
        left = prod(Fraction(kx_values[len(b) - 1]) for b in gamma.blocks)
        right = prod(Fraction(ky_values[len(b) - 1]) for b in complement.blocks)
        total += left * right
    return total


# Nested walks over ``children``: the definitions the trees had as nested
# frozen dataclasses, the references for the word-backed trees.


def _subtrees(tree) -> list:
    if isinstance(tree, BicolorPlanarTree):
        return [child for _, child in tree.children]
    return list(tree.children)


def rebuild_by_walk(tree):
    """The tree built again, leaves first, through the public constructor."""
    if isinstance(tree, BicolorPlanarTree):
        return BicolorPlanarTree(tuple((col, rebuild_by_walk(c)) for col, c in tree.children))
    return PlanarTree(tuple(rebuild_by_walk(c) for c in tree.children))


def size_by_walk(tree) -> int:
    return 1 + sum(size_by_walk(c) for c in _subtrees(tree))


def str_by_walk(tree) -> str:
    if isinstance(tree, BicolorPlanarTree):
        return "(" + "".join(f"{col}{str_by_walk(c)}" for col, c in tree.children) + ")"
    return "(" + "".join(str_by_walk(c) for c in tree.children) + ")"


def _tuple_repr(items: list) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def repr_by_walk(tree) -> str:
    """What ``@dataclass(frozen=True)`` printed for the nested trees."""
    if isinstance(tree, BicolorPlanarTree):
        kids = [_tuple_repr([repr(col), repr_by_walk(c)]) for col, c in tree.children]
    else:
        kids = [repr_by_walk(c) for c in tree.children]
    return f"{type(tree).__qualname__}(children={_tuple_repr(kids)})"


def render_tree_by_walk(tree) -> str:
    """The drawing ``render`` made by walking nested children: a vertex's
    children are drawn under its prefix, each continued by a solid rail if
    a colour-1 sibling follows it, a dashed one if only colour-0 ones do."""
    lines = ["o"]
    _draw_by_walk(tree, "", lines)
    return "\n".join(lines)


def _draw_by_walk(node, prefix: str, lines: list) -> None:
    if isinstance(node, BicolorPlanarTree):
        kids = list(node.children)
    else:
        kids = [(1, c) for c in node.children]
    for i, (colour, child) in enumerate(kids):
        lines.append(prefix + ("|-o" if colour == 1 else ":-o"))
        rest = [c for c, _ in kids[i + 1:]]
        _draw_by_walk(child, prefix + ("  " if not rest else "| " if 1 in rest else ": "), lines)


def vertex_order_by_walk(tree) -> tuple:
    """Per vertex in preorder, its children's preorder numbers, numbered by
    a recursive walk."""
    order: list = []
    _number_by_walk(tree, order)
    return tuple(order)


def _number_by_walk(node, order: list) -> int:
    slot = len(order)
    order.append(())
    order[slot] = tuple(_number_by_walk(c, order) for c in _subtrees(node))
    return slot + 1


def elementary_by_walk(tree) -> tuple:
    """(vertex number, child count) per vertex in preorder."""
    return tuple((v + 1, len(kids)) for v, kids in enumerate(vertex_order_by_walk(tree)))


# One object as a one-monomial profile: its indices counted into sorted
# (index, exponent) pairs per sequence, then multiplied out with an index
# check per factor.  The references for the direct products of
# ``transforms.eval_tree``, ``eval_bicolor`` and ``ncls_weight``.


def weight_by_profile(seqs, index_lists) -> Fraction:
    monomial = [sorted(Counter(indices).items()) for indices in index_lists]
    num = den = 1
    for seq, powers in zip(seqs, monomial):
        for i, e in powers:
            if i >= seq.order:
                raise OrderTooLow(f"need {seq.kind} of index {i}")
            num *= seq.values[i].numerator ** e
            den *= seq.values[i].denominator ** e
    return Fraction(num, den)


def tree_weight_by_profile(tree, t) -> Fraction:
    return weight_by_profile((t,), ([d for _, d in elementary_by_walk(tree)],))


def colour_counts_by_walk(tree: BicolorPlanarTree):
    """(colour-1, colour-0) child counts per vertex, in preorder, by a
    nested walk over ``children``."""
    k = sum(col for col, _ in tree.children)
    yield k, len(tree.children) - k
    for _, child in tree.children:
        yield from colour_counts_by_walk(child)


def bicolor_weight_by_profile(tree: BicolorPlanarTree, tx, ty) -> Fraction:
    return weight_by_profile((tx, ty), tuple(zip(*colour_counts_by_walk(tree))))


def ncls_weight_by_profile(pi: NCLPartition, tx, ty) -> Fraction:
    """t-index |B| - 1 at each block's minimum and 0 at each non-minimal
    position, odd positions to ``tx`` and even ones to ``ty``."""
    if not is_ncls(pi):
        raise NotNclS(f"{pi} is not parity-split")
    linked = ([(b[0], len(b) - 1) for b in pi.blocks]
              + [(e, 0) for e in non_minimal_elements(pi)])
    return weight_by_profile((tx, ty), tuple(
        [i for e, i in linked if e % 2 == odd] for odd in (1, 0)))


def _block_colour(blk) -> int:
    # parity-pure inside the split family: odd positions are colour 1
    return blk[0] % 2


def bicolor_by_exterior_blocks(pi: NCLPartition) -> BicolorPlanarTree:
    """λ by the paper's construction: fold a parity-split linked partition
    of {1..2n} into a bicolor tree through its exterior blocks.

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


# Non-crossing partitions by first blocks in order of size, each block list
# sorted and then the whole family sorted; the reference for the interval
# recursion behind ``enumerate_nc``.


@cache
def _nc_range_by_size(lo: int, hi: int):
    if lo > hi:
        return ((),)
    out = []
    span = tuple(range(lo + 1, hi + 1))
    for r in range(len(span) + 1):
        for tail in combinations(span, r):
            edges = (lo,) + tail
            gaps = [(edges[i] + 1, edges[i + 1] - 1) for i in range(len(edges) - 1)]
            gaps.append((edges[-1] + 1, hi))
            for combo in product(*(_nc_range_by_size(a, b) for a, b in gaps)):
                out.append((edges,) + tuple(chain.from_iterable(combo)))
    return tuple(out)


def nc_by_first_block_size(n: int) -> tuple:
    parts = [NCPartition(n, tuple(sorted(bl))) for bl in _nc_range_by_size(1, n)]
    parts.sort(key=lambda p: p.blocks)
    return tuple(parts)


# Linked partitions class by class: each block's connected class read off
# the planar trees through θ and relabelled onto the block by the order
# isomorphism, every member sorted, then everything sorted again; the
# reference for the recursion on a block's elements behind
# ``partitions._block_class``, and so for ``class_members``,
# ``enumerate_ncls`` and the interval recursion behind ``enumerate_ncl``.


def block_class_by_relabel(blk):
    k = len(blk)
    return [tuple(tuple(blk[e - 1] for e in b) for b in connected_from_tree(t).blocks)
            for t in enumerate_planar_trees(k, limit=k)]


def class_members_by_relabel(gamma):
    per_block = [block_class_by_relabel(blk) for blk in gamma.blocks]
    out = [NCLPartition(gamma.n, tuple(sorted(chain.from_iterable(combo))))
           for combo in product(*per_block)]
    out.sort(key=lambda p: p.blocks)
    return out


def ncl_by_classes(n: int) -> tuple:
    out = list(chain.from_iterable(class_members_by_relabel(g) for g in enumerate_nc(n)))
    out.sort(key=lambda p: p.blocks)
    return tuple(out)


def ncls_by_classes(n: int) -> tuple:
    out = list(chain.from_iterable(class_members_by_relabel(g) for g in enumerate_ncs(n)))
    out.sort(key=lambda p: p.blocks)
    return tuple(out)


# The freeness recursion with one ``Fraction`` operation per term: the
# references for the reduced-pair ``freeness.mixed_moment`` and ``_tcoeffs``.


def mixed_moment_by_fractions(scenario, letters) -> Fraction:
    """Sum over NC(n) of the product of the block cumulants."""
    total = Fraction(0)
    for gamma in enumerate_nc(len(letters)):
        term = Fraction(1)
        for blk in gamma.blocks:
            term *= mixed_cumulant(scenario, [letters[i - 1] for i in blk])
            if term == 0:
                break
        total += term
    return total


def tcoeffs_by_fractions(scenario, words) -> list:
    """The t-coefficient of every word (a tuple of letters), in order, each sub-word
    solved shortest first from its moment less every linked-partition term
    but the full block, over the non-leading letters' expectations."""
    first = {l: scenario.first_moment(l) for w in words for l in w}
    subs = {tuple(w[i] for i in idx) for w in words for k in range(1, len(w) + 1)
            for idx in combinations(range(len(w)), k)}
    table = {}
    for sub in sorted(subs, key=len):
        rest = Fraction(0)
        for pi in enumerate_ncl(len(sub)):
            if len(pi.blocks) == 1:
                continue  # the full-block term carries the unknown
            term = Fraction(1)
            for blk in pi.blocks:
                term *= table[tuple(sub[i - 1] for i in blk)]
                if term == 0:
                    break
            if term != 0:
                for e in non_minimal_elements(pi):
                    term *= first[sub[e - 1]]
            rest += term
        moment = mixed_moment_by_fractions(scenario, sub)
        table[sub] = (moment - rest) / prod(first[l] for l in sub[1:])
    return [table[w] for w in words]
