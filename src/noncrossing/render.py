"""Deterministic ASCII diagrams for partitions and trees.

Partitions are drawn as arc diagrams: labelled points on a baseline,
each block a horizontal bar with ticks down to its elements, nested
blocks below enclosing ones.  Trees are drawn root at top, one vertex
per line; solid ``|-`` edges are colour 1, dashed ``:-`` edges colour 0.
"""

from __future__ import annotations

from .partitions import NCLPartition, NCPartition, block_parents
from .trees import BicolorPlanarTree, PlanarTree

# rows times columns of the largest partition diagram drawn
MAX_CELLS = 10_000_000


def render_partition(pi: NCPartition | NCLPartition) -> str:
    blocks = pi.blocks
    # a block sits one row above its tallest child; children start after
    # their parent, so one reverse pass sees every child first
    heights = [1] * len(blocks)
    parents = block_parents(pi.n, blocks)
    for i in reversed(range(len(blocks))):
        p = parents[i]
        if p is not None:
            heights[p] = max(heights[p], heights[i] + 1)

    col_w = max(3, len(str(pi.n)) + 1)
    width = pi.n * col_w
    top = max(heights)
    if top * width > MAX_CELLS:
        raise ValueError(f"the diagram needs {top} rows of {width} columns, "
                         f"more than {MAX_CELLS} cells")
    grid = [[" "] * width for _ in range(top)]

    def col(e: int) -> int:
        return (e - 1) * col_w + 1

    for blk, h in zip(blocks, heights):
        row = top - h
        if len(blk) > 1:
            for c in range(col(blk[0]) + 1, col(blk[-1])):
                grid[row][c] = "_"
        for e in blk:
            for r in range(row, top):
                grid[r][col(e)] = "|"

    labels = "".join(str(e).center(col_w) for e in range(1, pi.n + 1))
    lines = ["".join(row).rstrip() for row in grid]
    lines.append(labels.rstrip())
    return "\n".join(lines)


def render_tree(tree: PlanarTree | BicolorPlanarTree) -> str:
    # a vertex at depth d is a child of the last one seen at depth d - 1:
    # prefixes[d - 1] starts the lines of that one's children
    lines, prefixes = ["o"], [""] * tree.size
    vertices = tree._vertices()
    next(vertices)  # the root, the first line
    for depth, colour, ones, left in vertices:
        prefix = prefixes[depth - 1]
        lines.append(prefix + (":-o" if colour == 0 else "|-o"))
        # below it, a rail runs on to a younger sibling: solid if one of colour 1
        prefixes[depth] = prefix + ("| " if ones else ": " if left else "  ")
    return "\n".join(lines)


def render(obj) -> str:
    if isinstance(obj, (NCPartition, NCLPartition)):
        return render_partition(obj)
    if isinstance(obj, (PlanarTree, BicolorPlanarTree)):
        return render_tree(obj)
    raise TypeError(f"cannot render {type(obj).__name__}")
