import gc
import json
import time

import pytest

from noncrossing import cli
from noncrossing.partitions import enumerate_ncl, validate_ncl, validate_nc
from noncrossing.render import MAX_CELLS, render, render_partition, render_tree
from noncrossing.trees import (
    BicolorPlanarTree,
    PlanarTree,
    enumerate_bicolor,
    enumerate_planar_trees,
)

from harness import run_cli
from oracles import render_by_pairs, render_tree_by_walk


def test_render_isolated_points():
    art = render_partition(validate_nc(3, [[1], [2], [3]]))
    lines = art.splitlines()
    assert lines[-1].split() == ["1", "2", "3"]
    # three isolated ticks, no horizontal joins
    assert "_" not in art


def test_render_paper_example_topology():
    pi = validate_ncl(12, [[1, 4, 6, 9], [2, 3], [4, 5], [6, 7, 8], [10, 11], [11, 12]])
    art = render_partition(pi)
    lines = art.splitlines()
    assert lines[-1].split() == [str(i) for i in range(1, 13)]
    # two height levels: exterior blocks above, nested and linked blocks below
    assert len(lines) == 3
    assert "_" in lines[0] and "_" in lines[1]


def test_render_partition_deterministic():
    pi = validate_ncl(6, [[1, 3], [3, 5], [2], [4], [6]])
    assert render_partition(pi) == render_partition(pi)


@pytest.mark.parametrize("n", range(1, 9))
def test_render_matches_pairwise_heights(n):
    for pi in enumerate_ncl(n):
        assert render_partition(pi) == render_by_pairs(pi), pi


def test_render_many_blocks_quickly():
    pi = validate_ncl(4000, [[e] for e in range(1, 4001)])
    start = time.perf_counter()
    art = render_partition(pi)
    assert time.perf_counter() - start < 1
    assert art.count("|") == 4000


def test_render_deep_nesting_through_cli():
    # 400 nested pairs: 400 rows of 3,200 columns, drawn without recursion
    data = {"n": 800, "blocks": [[i, 801 - i] for i in range(1, 401)]}
    proc = run_cli("render", json.dumps(data))
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 401


def test_render_refuses_diagram_above_max_cells(capsys):
    # 2,000 nested pairs need 2,000 rows of 20,000 columns
    data = {"n": 4000, "blocks": [[i, 4001 - i] for i in range(1, 2001)]}
    assert 2000 * 20000 > MAX_CELLS
    with pytest.raises(ValueError, match="2000 rows of 20000 columns"):
        render_partition(validate_nc(data["n"], data["blocks"]))
    code = cli.main(["render", json.dumps(data)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: the diagram needs")


def test_render_tree_plain():
    chain = PlanarTree((PlanarTree((PlanarTree(),)),))
    art = render_tree(chain)
    assert art.splitlines() == ["o", "|-o", "  |-o"]


def test_render_tree_bicolor_chain():
    leaf = BicolorPlanarTree()
    tree = BicolorPlanarTree(((1, BicolorPlanarTree(((0, leaf),))),))
    art = render_tree(tree)
    assert art.splitlines() == ["o", "|-o", "  :-o"]


def test_render_tree_sibling_edges():
    leaf = BicolorPlanarTree()
    tree = BicolorPlanarTree(((1, leaf), (0, leaf)))
    art = render_tree(tree)
    assert art.splitlines() == ["o", "|-o", ":-o"]


@pytest.mark.parametrize("kind, sizes", [("plain", range(1, 11)), ("bicolor", range(1, 8))])
def test_render_tree_matches_nested_walk(kind, sizes):
    # every planar tree to 10 vertices and every bicolor tree to 7
    enum = enumerate_planar_trees if kind == "plain" else enumerate_bicolor
    for n in sizes:
        for tree in enum(n):
            assert render_tree(tree) == render_tree_by_walk(tree), tree.word


@pytest.mark.parametrize("kind", ["plain", "bicolor"])
def test_deep_trees_render_print_and_dump(kind):
    # a 3,000-deep path, bicolor edges alternating 1, 0, 1, ...; nothing
    # here may recurse once per level
    depth = 3000
    tree = PlanarTree() if kind == "plain" else BicolorPlanarTree()
    for level in range(depth - 1, 0, -1):
        tree = PlanarTree((tree,)) if kind == "plain" else BicolorPlanarTree(((level % 2, tree),))
    lines = render(tree).splitlines()
    assert len(lines) == depth and lines[0] == "o"
    assert lines[2] == ("  :-o" if kind == "bicolor" else "  |-o")
    assert lines[-1] == "  " * (depth - 2) + "|-o"  # the last edge, at odd depth, is colour 1
    text = str(tree)
    assert text.count("(") == depth and text.endswith(")" * depth)
    node, levels = tree.to_json_dict(), 1
    while node["children"]:
        (entry,) = node["children"]
        assert entry.get("color") == (None if kind == "plain" else levels % 2)
        node, levels = entry["tree"], levels + 1
    assert levels == depth


def test_render_leaves_no_reference_cycles():
    # every line a render allocates is freed by reference counting, so
    # nothing is left for the cyclic collector
    objs = [t for n in range(1, 8) for t in enumerate_planar_trees(n)]
    objs += [t for n in range(1, 6) for t in enumerate_bicolor(n)]
    objs += enumerate_ncl(5)
    gc.collect()
    gc.disable()
    try:
        for obj in objs:
            render(obj)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_render_dispatch():
    assert render(validate_nc(1, [[1]]))
    assert render(PlanarTree())
    with pytest.raises(TypeError, match="^cannot render int$"):
        render(5)
