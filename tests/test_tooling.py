"""Guards on the package's shape that the functional tests do not see."""

import ast
import gc
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

from noncrossing import cli, freeness, partitions, transforms

from harness import run_cli

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
# no import cycle; an import deferred into a function (ast.walk sees it too)
# is there only to keep start-up small, never to dodge a cycle
IMPORT_ORDER = ("errors", "limits", "partitions", "trees", "transforms", "freeness",
                "jsonio", "render", "poly", "verify", "cli")


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


def test_only_poly_packs_monomials():
    # poly owns the packed layout: it has no relative import (an absolute one
    # is stdlib, above), only verify imports it, and verify reads no bit length
    src = ROOT / "src" / "noncrossing"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
                assert not (path.stem == "poly" and node.level), f"poly.py:{node.lineno}"
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert path.stem == "verify" or "poly" not in {n.rsplit(".", 1)[-1] for n in names}, \
                f"{path.name}:{node.lineno} imports poly"
    for node in ast.walk(ast.parse((src / "verify.py").read_text())):
        assert not (isinstance(node, ast.Attribute) and node.attr == "bit_length"), \
            f"verify.py:{node.lineno} reads a bit length"


def test_cli_only_dispatches():
    # every input check belongs to the library function that reads the
    # input, so a library call refuses what the CLI refuses: the CLI raises
    # no domain error but its own cap refusals, and tests no library type
    from noncrossing import errors

    modules = [importlib.import_module(f"noncrossing.{name}") for name in IMPORT_ORDER[:-1]]
    library_types = {name for module in modules for name, value in vars(module).items()
                     if inspect.isclass(value) and value.__module__.startswith("noncrossing")}
    domain_errors = {name for name, value in vars(errors).items() if inspect.isclass(value)
                     and issubclass(value, errors.NonCrossingError)} - {"LimitExceeded"}
    assert "PlanarTree" in library_types and "NotConnected" in domain_errors

    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    for node in ast.walk(ast.parse((ROOT / "src" / "noncrossing" / "cli.py").read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            assert not names(raised) & domain_errors, \
                f"cli.py:{node.lineno} raises {ast.unparse(raised)}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("isinstance", "issubclass"):
            assert not names(node.args[1]) & library_types, \
                f"cli.py:{node.lineno} tests a library type"


def test_only_frozen_defines_equality_and_pickling():
    # records compare, hash and pickle through Frozen and the key a class
    # states; a second __eq__ or __reduce__ would restate the rule
    for path in sorted((ROOT / "src" / "noncrossing").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and (path.stem, node.name) != ("errors", "Frozen"):
                defined = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                restated = defined & {"__eq__", "__reduce__", "__reduce_ex__"}
                assert not restated, f"{path.name}: {node.name} defines {sorted(restated)}"


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


def test_series_modules_import_no_enumerator():
    # the series route (jsonio's series parsers and the transforms' solves)
    # loads no partition, tree or freeness module; the functions that
    # enumerate import them when called
    for name in ("transforms", "jsonio"):
        tree = ast.parse((ROOT / "src" / "noncrossing" / f"{name}.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                for target in targets:
                    assert target not in ("partitions", "trees", "freeness"), \
                        f"{name} imports {target} at module level"


LISTED = """
import sys
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "noncrossing")),
      file=sys.stderr)
"""

SESSION = """
from noncrossing import jsonio, transforms
m = jsonio.parse_moments({"coeffs": ["1", "2", "5", "-3/4", "0.5"]})
assert transforms.cumulants_to_moments(transforms.moments_to_cumulants(m)) == m
assert transforms.tcoeffs_to_moments(transforms.moments_to_tcoeffs(m)) == m
"""

# what ``python -m noncrossing transform m2k ...`` runs
TRANSFORM = """
import runpy, sys
sys.argv[1:] = ["transform", "m2k", '{"coeffs":["1","2","5"]}']
try:
    runpy.run_module("noncrossing", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def test_series_route_loads_no_enumerator():
    series = {"noncrossing", "noncrossing.errors", "noncrossing.limits",
              "noncrossing.transforms", "noncrossing.jsonio"}
    for code, expected in (
        ("import noncrossing.cli", series | {"noncrossing.cli"}),
        (SESSION, series),
        (TRANSFORM, series | {"noncrossing.cli"}),
    ):
        # the inherited environment, PYTHONPATH included, as the CLI tests run
        proc = subprocess.run([sys.executable, "-c", code + LISTED],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert set(proc.stderr.split()) == expected, code


# what ``python -m noncrossing ARGV`` runs, noting that it calls ``cli.run``
# and whether the cyclic collector is on when ``cli.main`` starts
ENTRY = """
import gc, runpy, sys
from noncrossing import cli
assert gc.isenabled() and not gc.get_freeze_count()
seen, main, run = [], cli.main, cli.run
cli.run = lambda: seen.append("run") or run()
cli.main = lambda *args: seen.append(gc.isenabled()) or main(*args)
sys.argv[1:] = ARGV
try:
    runpy.run_module("noncrossing", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
assert seen == ["run", False], seen
assert gc.get_freeze_count() > 0
sys.exit(code)
"""


def test_both_install_routes_run_one_entry():
    # the installed script and python -m call cli.run, which runs the
    # command with the collector off and keeps its exit code and output
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]", 1)[1]
    (target,) = re.findall(r'^noncrossing\s*=\s*"([^"]+)"', scripts.split("\n[", 1)[0], re.M)
    modname, _, attr = target.partition(":")
    assert getattr(importlib.import_module(modname), attr) is cli.run
    for argv in (["transform", "m2k", '{"coeffs":["1","2","5"]}'], ["enumerate", "nc", "13"],
                 ["transform", "m2t", '{"coeffs":["0","1"]}'],
                 ["biject", "theta", '{"n":3,"blocks":[[1,2],[3]]}'], ["transform"]):
        # the inherited environment, PYTHONPATH included, as the CLI tests run
        proc = subprocess.run([sys.executable, "-c", ENTRY.replace("ARGV", repr(argv))],
                              capture_output=True, text=True)
        enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        same = run_cli(*argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        assert (proc.returncode, proc.stdout) == (same.returncode, same.stdout), proc.stderr


def test_package_names_resolve_to_their_modules():
    # each public name is its module's own object, whichever is read first
    import noncrossing

    assert len(noncrossing.__all__) == len(set(noncrossing.__all__)) == 74
    for name in noncrossing.__all__:
        value = getattr(noncrossing, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    code = (
        "import noncrossing\n"
        "names = dir(noncrossing)\n"
        "missing = set(noncrossing.__all__) - set(names)\n"
        "assert not missing, missing\n"
        f"for module in {IMPORT_ORDER!r}:\n"
        "    assert module in names and getattr(noncrossing, module).__name__ == "
        "'noncrossing.' + module, module\n"
        "from noncrossing import *\n"
        "assert kreweras is noncrossing.partitions.kreweras\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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


def test_only_trees_reads_the_tree_word():
    # each tree class states its weight's t-indices (``_t_indices``), so no
    # other module needs to know how a tree word is laid out
    for path in sorted((ROOT / "src" / "noncrossing").glob("*.py")):
        if path.name != "trees.py":
            for node in ast.walk(ast.parse(path.read_text())):
                assert not (isinstance(node, ast.Attribute) and node.attr == "word"), \
                    f"{path.name}:{node.lineno} reads .word"


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


# the tests that start a python -m noncrossing child, each for what only a
# child shows; every other CLI call runs in process through harness.run_cli
CHILD_TESTS = {
    "test_cli.py": {
        "test_run_cli_matches_a_child",  # the reference for the in-process runs
        "test_enumerate_into_closed_pipe_exits_quietly",  # a real closed pipe
        "test_env_limits",  # an inherited environment
        "test_enumerate_determinism",  # bytes across two hash seeds
    },
    "test_acceptance.py": {"test_criterion_12_cli"},  # the -m entry, two hash seeds
}


def test_only_the_named_tests_start_a_child():
    found = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path.name in ("harness.py", "test_tooling.py"):
            continue
        tree = ast.parse(path.read_text())
        named = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name in CHILD_TESTS.get(path.name, ())]
        found[path.name] = {node.name for node in named}
        allowed = {id(node) for test in named for node in ast.walk(test)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "subprocess" not in [a.name for a in node.names], path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "subprocess", path.name
            elif isinstance(node, ast.Attribute) and node.attr == "executable":
                assert not (isinstance(node.value, ast.Name) and node.value.id == "sys"), \
                    f"{path.name} reads sys.executable"
            elif isinstance(node, ast.Name) and node.id in ("run_child", "open_child"):
                assert id(node) in allowed, f"{path.name}:{node.lineno} starts a child"
    assert {name: tests for name, tests in found.items() if tests} == CHILD_TESTS


def test_cli_tables_name_public_functions():
    # the package's registry is the one map from a public function to its
    # module; the CLI's tables name functions only and read them through it
    import noncrossing

    entries = [*cli._ENUMERATORS.values()]
    entries += [entry for routes in cli._ROUTES.values() for entry in routes.values()]
    for entry in entries:
        *parsers, name = entry if isinstance(entry, tuple) else (entry,)
        assert name in noncrossing.__all__, f"{entry} applies {name}"
        assert not set(IMPORT_ORDER) & {*parsers, name}, f"{entry} names a module"


# ROADMAP item 15: every top-level function or class of the library is
# reached from a product root, or is owed a caller by the open item named
# here; a name leaves this table when its item lands
OWED = {"vertex_order": 19, "elementary_decomposition": 19, "parse_nc": 19, "parse_scenario": 1}

IDENTIFIER = re.compile(r"[A-Za-z_]\w*", re.ASCII)


def _mentioned(node):
    """The identifiers a statement names: its names, attributes, imported
    names and identifier-like strings (the CLI tables and ``getattr``)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and IDENTIFIER.fullmatch(n.value):
            yield n.value


def _reached():
    """(top-level functions and classes of the library, those reached).

    A pure AST walk: reaching a name reaches every top-level statement of
    the library that binds it, and every identifier that statement names.
    The roots are the CLI's entry points, commands and tables, the verify
    suites, the API (the package's public names that README writes in
    backticks) and the names the acceptance suite imports."""
    import noncrossing

    roots = {"main", "run", "build_parser", "_ENUMERATORS", "_ROUTES", "run_suites", "SUITES"}
    bound, defined = {}, set()
    for name in IMPORT_ORDER:
        for node in ast.parse((ROOT / "src" / "noncrossing" / f"{name}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                bound.setdefault(node.name, []).append(node)
                if name == "cli" and node.name.startswith("_cmd_"):
                    roots.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            bound.setdefault(n.id, []).append(node)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    bound.setdefault(alias.asname or alias.name, []).append(alias)
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        roots |= {word.rsplit(".", 1)[-1] for word in re.findall(r"[A-Za-z_][\w.]*", span)
                  } & set(noncrossing.__all__)
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    roots |= {alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "noncrossing" for alias in node.names}
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in bound.get(name, ()):
                todo.extend(_mentioned(node))
    return defined, reached & defined


def test_every_function_is_reached_or_owed():
    defined, reached = _reached()
    assert len(defined) > 150 and {"main", "kreweras", "Frozen"} <= reached
    assert not set(OWED) - defined, f"owed names no longer defined: {sorted(set(OWED) - defined)}"
    assert not set(OWED) & reached, f"owed names now reached: {sorted(set(OWED) & reached)}"
    unreached = defined - reached - set(OWED)
    assert not unreached, f"nothing reaches {sorted(unreached)}: delete them or owe them an item"
