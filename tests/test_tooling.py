"""Guards on the package's shape that the functional tests do not see."""

import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

from noncrossing import freeness, partitions, transforms

ROOT = Path(__file__).resolve().parents[1]


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_layers_name_existing_functions():
    # the benchmark wraps these names; a deleted one breaks only the benchmark
    spans = _spans()
    for modname, table in spans.LAYERS.items():
        mod = importlib.import_module(f"noncrossing.{modname}")
        for attr in table:
            fn = getattr(mod, attr, None)
            assert fn is not None and inspect.isfunction(inspect.unwrap(fn)), f"{modname}.{attr}"


def test_traced_benchmark_reads_what_exists():
    # besides the names, the traced run reads the Kreweras cache counters off
    # the module's own kreweras (``inspect.unwrap`` would strip the cache too)
    # and counts each vanishing-suite result by its words_checked
    info = partitions.kreweras.cache_info()
    assert isinstance(info.hits, int) and isinstance(info.misses, int)
    assert inspect.isfunction(inspect.unwrap(partitions.kreweras))
    scenario = freeness.Scenario({"X": transforms.CumulantSequence((1, 1, 1)),
                                  "Y": transforms.CumulantSequence((2, 1, 0))})
    report = freeness.freeness_vanishing_suite(scenario, 3)
    _, count = _spans().LAYERS["freeness"]["freeness_vanishing_suite"]
    assert type(report.words_checked) is int and count(report) == report.words_checked == 8


def test_oracles_import_no_private_name():
    # an oracle that borrows a private helper of the package is no second route
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "noncrossing" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "noncrossing":
            assert not [a.name for a in node.names if a.name.startswith("_")], node.module


def test_runtime_imports_are_stdlib():
    for path in sorted((ROOT / "src" / "noncrossing").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name}: {name}"


# each module may import only from the modules before it, so the package has
# no import cycle and no import deferred into a function to dodge one
IMPORT_ORDER = ("errors", "limits", "partitions", "trees", "transforms", "freeness",
                "jsonio", "render", "verify", "cli")


def test_package_imports_follow_one_order():
    src = ROOT / "src" / "noncrossing"
    assert {p.stem for p in src.glob("*.py")} - {"__init__", "__main__"} == set(IMPORT_ORDER)
    for rank, name in enumerate(IMPORT_ORDER):
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            targets = [node.module] if node.module else [alias.name for alias in node.names]
            for target in targets:
                assert IMPORT_ORDER.index(target) < rank, f"{name} imports {target}"


def test_freeness_imports_no_enumerator():
    # moments and t-coefficients come from first-block recursions; the
    # partition and tree enumerations only prove identities
    tree = ast.parse((ROOT / "src" / "noncrossing" / "freeness.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [alias.name for alias in node.names]
            assert node.module is not None, f"freeness imports modules {names}"
            for name in names:
                assert not name.startswith(("enumerate_", "iter_")), f"freeness imports {name}"


def test_render_reads_trees_through_one_scan():
    # the word layout stays behind ``trees``: render reads neither a tree's
    # nested children nor its word, and no function of it calls itself
    tree = ast.parse((ROOT / "src" / "noncrossing" / "render.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in ("children", "word"), f"render reads .{node.attr}"
        if isinstance(node, ast.FunctionDef):
            called = {c.func.id for c in ast.walk(node)
                      if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
            assert node.name not in called, f"render.{node.name} calls itself"


def test_cli_import_loads_no_dataclasses():
    # importing dataclasses pulls in inspect, ast and more, about 1 MiB of
    # peak RSS per process; FrozenInstanceError is imported only when raised
    code = (
        "import sys, noncrossing.cli\n"
        "loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "from dataclasses import FrozenInstanceError\n"
        "from noncrossing import NCPartition\n"
        "try:\n"
        "    NCPartition(1, ((1,),)).n = 2\n"
        "except FrozenInstanceError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('an NCPartition took an assignment')\n"
    )
    # the inherited environment, PYTHONPATH included, as the CLI tests run
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
