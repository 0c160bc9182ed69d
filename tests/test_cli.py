import argparse
import gc
import hashlib
import io
import json
import os
import sys
import time
import tracemalloc
from functools import partial
from itertools import islice
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noncrossing import (cli, errors, freeness, jsonio, partitions, poly, render, transforms,
                         trees, verify)
from noncrossing.errors import LimitExceeded, NotConnected, NotNclS, shorten
from noncrossing.limits import DEFAULT_LIMITS
from noncrossing.partitions import NCPartition
from noncrossing.trees import enumerate_bicolor, enumerate_planar_trees

from harness import open_child, run_child, run_cli


@pytest.mark.parametrize("args, stdin, exported, limits, code", [
    (("enumerate", "nc", "3"), None, None, None, 0),
    (("enumerate", "nc", "13"), None, None, None, 2),
    (("transform", "m2t", '{"order":2,"coeffs":["0","1"]}'), None, None, None, 3),
    (("biject", "theta", '{"n":3,"blocks":[[1,2],[3]]}'), None, None, None, 4),
    (("transform", "m2t", "-"), '{"coeffs":["1","1","1"]}', None, None, 0),
    (("transform",), None, None, None, 2),
    (("enumerate", "nc", "3"), None, "nc=1", None, 0),
    (("enumerate", "nc", "4"), None, None, "nc=3", 2),
], ids=["exit0", "cap", "exit3", "exit4", "stdin", "usage", "exported-limits", "limits"])
def test_run_cli_matches_a_child(monkeypatch, args, stdin, exported, limits, code):
    # the reference for the in-process harness: a python -m child gives the same result
    if exported:
        monkeypatch.setenv("NCL_LIMITS", exported)
    here = run_cli(*args, stdin=stdin, limits=limits)
    child = run_child(*args, stdin=stdin, limits=limits)
    assert here.returncode == code
    assert (here.returncode, here.stdout, here.stderr) == (
        child.returncode, child.stdout, child.stderr)


def test_enumerate_nc3():
    proc = run_cli("enumerate", "nc", "3")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 6
    assert json.loads(lines[-1]) == {"count": 5}
    first = json.loads(lines[0])
    assert first == {"blocks": [[1], [2], [3]], "n": 3}


def test_enumerate_ncl4_count():
    proc = run_cli("enumerate", "ncl", "4")
    assert json.loads(proc.stdout.splitlines()[-1]) == {"count": 22}


def test_enumerate_bicolor3_count():
    proc = run_cli("enumerate", "bicolor", "3")
    assert json.loads(proc.stdout.splitlines()[-1]) == {"count": 7}


def test_enumerate_text_format():
    proc = run_cli("enumerate", "nc", "2", "--format", "text")
    assert proc.stdout.splitlines() == ["(1)(2)", "(1,2)", "count 2"]


@pytest.mark.parametrize("args, digest", [
    (("nc", "12", "--format", "text"),
     "63c91f09f417cf8e8abd3612a84980a83dcbf68c32b8e5959258c3994755fe96"),
    (("ncl", "9", "--format", "json"),
     "4afd004c3d8fd23f9daee4c878e7294609bad0c3b4da7b6328c711a174ee4da3"),
    (("trees", "10", "--format", "json"),
     "e98e88d5f5f5b3bdc152261bf9bcc3d4f82083cd2847ed71bd681372864592fa"),
    (("trees", "10", "--format", "text"),
     "e50b0a9aa059bfa1a75f6a4f16a99a84a7606f97dca1cd730ec6422453e6be08"),
    (("bicolor", "7", "--format", "json"),
     "7d7a76eb6a384f8ec2d7af01801a278ae85815079396230c525fe88dede10f3f"),
])
def test_enumerate_bytes_pinned(args, digest):
    # streamed output keeps the bytes of the dumps built from whole tuples
    proc = run_cli("enumerate", *args)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_tree_render_bytes_pinned():
    # every planar tree to 7 vertices and every bicolor tree to 5, drawn
    drawings = [render.render(t) for n in range(1, 8) for t in enumerate_planar_trees(n)]
    drawings += [render.render(t) for n in range(1, 6) for t in enumerate_bicolor(n)]
    assert len(drawings) == 380
    assert hashlib.sha256("\n\n".join(drawings).encode()).hexdigest() == (
        "e9d451a6e6d89562a38eac1cdf98b9f0541b297d7b1ec43b8ea6aef37da512c1")


def test_enumerate_over_cap_prints_nothing():
    proc = run_cli("enumerate", "nc", "13")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "capped at 12" in proc.stderr


def test_enumerate_into_closed_pipe_exits_quietly():
    # a reader that stops early, like `| head -1`, is the normal use of a stream;
    # only a child has a real pipe for it to close
    with open_child("enumerate", "nc", "10", "--format", "text") as proc:
        assert proc.stdout.readline() == b"(1)(2)(3)(4)(5)(6)(7)(8)(9)(10)\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""


def test_enumerate_limit_exit_code():
    proc = run_cli("enumerate", "ncl", "10")
    assert proc.returncode == 2
    assert "capped at 9" in proc.stderr


def test_limit_overrides():
    proc = run_cli("enumerate", "nc", "4", "--limit", "nc=3")
    assert proc.returncode == 2
    proc = run_cli("enumerate", "nc", "4", "--limit", "nc=4")
    assert proc.returncode == 0
    # raising a cap beyond its default needs the explicit flag
    proc = run_cli("enumerate", "ncl", "10", "--limit", "ncl=10")
    assert proc.returncode == 2
    assert "--unsafe-limits" in proc.stderr
    # a --limit naming a kind the command does not cap is rejected, not ignored
    series = '{"coeffs":["1","2"]}'
    for args in [
        ("enumerate", "nc", "3", "--limit", "ncl=1"),
        ("enumerate", "nc", "3", "--limit", "transform=5"),
        ("convolve", "--tx", series, "--ty", series, "--limit", "nc=3"),
        ("convolve", "--mx", series, "--my", series, "--limit", "nc=3"),
    ]:
        proc = run_cli(*args)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "which this" in proc.stderr and "does not cap" in proc.stderr


@pytest.mark.parametrize("spec", ["nc=\u0663", "nc=\u00b2", "nc=", "nc=-1", "bogus=3"])
def test_limit_overrides_reject_malformed_specs(spec):
    # only ASCII digits count: int() would read the Arabic-Indic three as 3
    # and reject the superscript two with a message of its own
    proc = run_cli("enumerate", "nc", "2", "--limit", spec)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"bad limit spec {spec!r}; use KIND=N" in proc.stderr


def _one_short_line(stderr: str) -> bool:
    return stderr.count("\n") == 1 and stderr.endswith("\n") and len(stderr.encode()) <= 200


@pytest.mark.parametrize("where", ["flag", "env"])
def test_cap_over_the_digit_limit_exit2(digit_limit, where):
    # int() of the value would fail with the interpreter's hint; the line
    # names the kind and the digit count, and quotes only a head of the spec
    value = "1" * (digit_limit + 700)
    flags = ("--limit", f"nc={value}") if where == "flag" else ()
    proc = run_cli("enumerate", "nc", "3", *flags, limits=None if flags else f"nc={value}")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: bad limit spec 'nc=111")
    assert f"the nc cap has {digit_limit + 700} digits" in proc.stderr
    assert _one_short_line(proc.stderr)


CATALAN3 = '{"order":3,"coeffs":["1","2","5"]}'


@pytest.mark.parametrize(
    "args, env",
    [
        (("enumerate", "nc", "3", "--limit", "nc=0"), None),
        (("enumerate", "nc", "3"), "nc=0"),
        (("enumerate", "nc", "3", "--limit", "nc=00"), None),
        (("convolve", "--mx", CATALAN3, "--my", CATALAN3, "--limit", "theorem=0"), None),
    ],
    ids=["flag", "env", "flag-zeros", "convolve-flag"],
)
def test_caps_below_one_are_bad_specs(args, env):
    # no size fits under a cap of 0, so it is refused when read, whatever
    # the command would go on to request
    proc = run_cli(*args, limits=env)
    spec = env or args[-1]
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: bad limit spec {spec!r}; use KIND=N\n"


def test_env_limits():
    # a child process inherits the environment (PYTHONPATH included) and reads the cap there
    proc = run_child("enumerate", "nc", "4", limits="nc=3")
    assert proc.returncode == 2
    assert "nc is capped at 3" in proc.stderr


def test_transform_m2t_fixture():
    proc = run_cli(
        "transform", "m2t", '{"order":5,"coeffs":["1","2","5","14","42"]}'
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "order": 5,
        "coeffs": ["1", "1", "0", "0", "0"],
    }


def test_transform_m2k_and_back():
    proc = run_cli("transform", "m2k", '{"order":3,"coeffs":["1","2","5"]}')
    assert json.loads(proc.stdout)["coeffs"] == ["1", "1", "1"]
    proc2 = run_cli("transform", "k2m", proc.stdout.strip())
    assert json.loads(proc2.stdout)["coeffs"] == ["1", "2", "5"]


def _series(values) -> str:
    return json.dumps({"order": len(values), "coeffs": [str(v) for v in values]})


def test_transform_m2t_order60_catalan():
    catalan = [comb(2 * n, n) // (n + 1) for n in range(1, 61)]
    proc = run_cli("transform", "m2t", _series(catalan))
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"order": 60, "coeffs": ["1", "1"] + ["0"] * 58}


def test_transform_m2k_order13():
    catalan = [comb(2 * n, n) // (n + 1) for n in range(1, 14)]
    proc = run_cli("transform", "m2k", _series(catalan))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coeffs"] == ["1"] * 13


@pytest.mark.parametrize("direction", ["m2k", "k2m", "m2t", "t2m"])
def test_transform_order61_exit2(direction):
    proc = run_cli("transform", direction, _series([1] * 61))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: transform is capped at 60 (requested 61)\n"


@pytest.mark.parametrize("count", [61, 300_000])
@pytest.mark.parametrize("direction", ["m2k", "k2m", "m2t", "t2m"])
def test_transform_cap_checked_before_any_coefficient_is_parsed(
    monkeypatch, capsys, direction, count
):
    def refuse(text):
        raise AssertionError("a coefficient was parsed before the cap was checked")

    monkeypatch.setattr(cli.jsonio, "parse_fraction", refuse)
    code = cli.main(["transform", direction, _series(["1/3"] * count)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: transform is capped at 60 (requested {count})\n"


@pytest.mark.parametrize("count", [61, 300_000])
@pytest.mark.parametrize("mode", ["t", "m"])
@pytest.mark.parametrize("long_side", ["x", "y"])
def test_convolve_caps_each_series_before_any_coefficient_is_parsed(
    monkeypatch, capsys, mode, long_side, count
):
    def refuse(text):
        raise AssertionError("a coefficient was parsed before the cap was checked")

    monkeypatch.delenv("NCL_LIMITS", raising=False)
    monkeypatch.setattr(cli.jsonio, "parse_fraction", refuse)
    series = {"x": _series(["1"] * 3), "y": _series(["1"] * 3)}
    series[long_side] = _series(["1/3"] * count)
    start = time.perf_counter()
    code = cli.main(["convolve", f"--{mode}x", series["x"], f"--{mode}y", series["y"]])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: transform is capped at 60 (requested {count})\n"
    assert elapsed < 0.5


@pytest.mark.parametrize("data, code, message", [
    ('{"coeffs":[]}', 4, "error: a moment sequence needs at least one entry\n"),
    ('{"order":0}', 2, "error: missing key 'coeffs'\n"),
    ('{"coeffs":"' + "1" * 61 + '"}', 2, "error: 'coeffs' must be a list\n"),
    ('{"coeffs":{"a":1}}', 2, "error: 'coeffs' must be a list\n"),
])
def test_transform_cap_leaves_the_parser_errors(capsys, data, code, message):
    assert cli.main(["transform", "m2k", data]) == code
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("text", ["1_000", "1/2_0", "1.5_0", "\u0663", "1/\u0663", " 1", "1 ",
                                  "3 / 4", ".5", "5.", "+", "1/-2", "0x10", "1e5", ""])
def test_coefficient_outside_the_grammar_exit2(capsys, text):
    # one ASCII grammar on every interpreter: Fraction accepts underscores
    # from 3.11 on, and spaces and other scripts' digits on every version
    assert cli.main(["transform", "m2k", json.dumps({"coeffs": ["1", text]})]) == 2
    assert capsys.readouterr() == ("", f"error: {text!r} is not an integer, a/b or a plain decimal\n")


@pytest.mark.parametrize("number, shown", [("1e400", "inf"), ("-1e400", "-inf"),
                                           ("NaN", "nan"), ("-Infinity", "-inf")])
def test_non_finite_json_number_exit2(capsys, number, shown):
    # the decoder reads these as float inf or nan; the refusal is the package's own line
    assert cli.main(["transform", "m2k", '{"coeffs":[%s]}' % number]) == 2
    assert capsys.readouterr() == ("", f"error: {shown} is not a finite number\n")


@pytest.fixture
def digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length to and from text")
    return limit


def _over_digit_limit(what: str, limit: int) -> str:
    return f"error: {what} has more than {limit} digits, the limit on integers read or written as text\n"


@pytest.mark.parametrize("argv, what", [
    (["transform", "m2k", '{"coeffs":[1,%s]}'], "an input integer"),
    (["biject", "theta", '{"n":1,"blocks":[[%s]]}'], "an input integer"),
    (["transform", "m2k", '{"coeffs":["1","%s"]}'], "an input coefficient"),
    (["transform", "k2m", '{"coeffs":["1/%s"]}'], "an input coefficient"),
    (["transform", "m2t", '{"coeffs":["1.%s"]}'], "an input coefficient"),
])
def test_integer_over_the_digit_limit_exit2(capsys, digit_limit, argv, what):
    # the interpreter's own message names a setting of its own, not the input
    *head, data = argv
    assert cli.main([*head, data % ("7" * (digit_limit + 700))]) == 2
    assert capsys.readouterr() == ("", _over_digit_limit(what, digit_limit))


def test_result_over_the_digit_limit_exit2(capsys, digit_limit):
    # kappa_2 = m_2 - m_1^2 has about twice the digits of m_1
    m1 = "9" * (digit_limit * 3 // 4)
    assert cli.main(["transform", "m2k", f'{{"coeffs":[{m1},0]}}']) == 2
    assert capsys.readouterr() == ("", _over_digit_limit("a result cumulant", digit_limit))


def test_transform_m2t_zero_first_moment_exit3():
    proc = run_cli("transform", "m2t", '{"order":2,"coeffs":["0","1"]}')
    assert proc.returncode == 3


def test_transform_stdin():
    proc = run_cli("transform", "m2t", "-", stdin='{"order":3,"coeffs":["1","1","1"]}')
    assert json.loads(proc.stdout)["coeffs"] == ["1", "0", "0"]


def test_biject_theta_roundtrip():
    proc = run_cli("biject", "theta", '{"n":3,"blocks":[[1,2],[2,3]]}')
    assert proc.returncode == 0
    tree = json.loads(proc.stdout)
    assert tree == {"children": [{"tree": {"children": [{"tree": {"children": []}}]}}]}
    proc2 = run_cli("biject", "theta-inv", proc.stdout.strip())
    assert json.loads(proc2.stdout) == {"n": 3, "blocks": [[1, 2], [2, 3]]}


def test_biject_theta_not_connected_exit4():
    proc = run_cli("biject", "theta", '{"n":3,"blocks":[[1,2],[3]]}')
    assert proc.returncode == 4


def test_biject_lambda_roundtrip():
    proc = run_cli("biject", "lambda", '{"n":6,"blocks":[[1,3,5],[2],[4],[6]]}')
    assert proc.returncode == 0
    tree = json.loads(proc.stdout)
    assert tree == {
        "children": [
            {"color": 1, "tree": {"children": []}},
            {"color": 1, "tree": {"children": []}},
        ]
    }
    proc2 = run_cli("biject", "lambda-inv", proc.stdout.strip())
    assert json.loads(proc2.stdout) == {"n": 6, "blocks": [[1, 3, 5], [2], [4], [6]]}


def test_biject_lambda_not_split_exit4():
    proc = run_cli("biject", "lambda", '{"n":4,"blocks":[[1,2],[3,4]]}')
    assert proc.returncode == 4


def test_biject_crossing_exit4():
    proc = run_cli("biject", "theta", '{"n":4,"blocks":[[1,3],[2,4]]}')
    assert proc.returncode == 4


# inputs of the biject pin: the README examples, one member of each domain
# for every n <= 6 (blocks reversed, as a parser may meet them), and one
# input per error kind; each goes through all four directions
BIJECT_INPUTS = [
    '{"n":3,"blocks":[[1,2],[2,3]]}',
    '{"n":6,"blocks":[[1,3,5],[2],[4],[6]]}',
    '{"n":1,"blocks":[[1]]}',
    '{"n":2,"blocks":[[2,1]]}',
    '{"n":3,"blocks":[[3,2],[2,1]]}',
    '{"n":4,"blocks":[[3,2],[4,2,1]]}',
    '{"n":5,"blocks":[[4,3,2],[5,2,1]]}',
    '{"n":6,"blocks":[[4,3],[3,2],[6,5,2,1]]}',
    '{"n":2,"blocks":[[2],[1]]}',
    '{"n":4,"blocks":[[3],[4,2],[1]]}',
    '{"n":6,"blocks":[[6],[4],[5,3],[2],[3,1]]}',
    '{"n":8,"blocks":[[7],[5],[6,4],[3],[8,4,2],[1]]}',
    '{"n":10,"blocks":[[10],[8],[6],[7,5],[4],[5,3],[2],[9,3,1]]}',
    '{"n":12,"blocks":[[12],[10],[8],[9,7],[6],[4],[7,5,3],[2],[11,3,1]]}',
    '{"children":[]}',
    '{"children":[{"tree":{"children":[]}}]}',
    '{"children":[{"tree":{"children":[{"tree":{"children":[]}}]}}]}',
    '{"children":[{"tree":{"children":[{"tree":{"children":[]}}]}},{"tree":{"children":[]}}]}',
    '{"children":[{"tree":{"children":[{"tree":{"children":[]}},{"tree":{"children":[]}}]}},'
    '{"tree":{"children":[]}}]}',
    '{"children":[{"tree":{"children":[{"tree":{"children":[{"tree":{"children":[]}}]}}]}},'
    '{"tree":{"children":[]}},{"tree":{"children":[]}}]}',
    '{"children":[{"color":0,"tree":{"children":[]}}]}',
    '{"children":[{"color":1,"tree":{"children":[{"color":1,"tree":{"children":[]}}]}}]}',
    '{"children":[{"color":0,"tree":{"children":[{"color":0,"tree":{"children":[]}}]}},'
    '{"color":0,"tree":{"children":[]}}]}',
    '{"children":[{"color":1,"tree":{"children":[{"color":1,"tree":{"children":'
    '[{"color":1,"tree":{"children":[]}}]}}]}},{"color":1,"tree":{"children":[]}}]}',
    '{"children":[{"color":1,"tree":{"children":[{"color":1,"tree":{"children":[]}},'
    '{"color":1,"tree":{"children":[{"color":1,"tree":{"children":[]}}]}}]}},'
    '{"color":1,"tree":{"children":[]}}]}',
    # empty block, repeat, out of range (high, zero), uncovered, uncovered
    # beyond any array, bad links, crossing, non-integer and non-list blocks,
    # disconnected, not parity-split, a size below one, a bad colour
    '{"n":2,"blocks":[[1,2],[]]}',
    '{"n":3,"blocks":[[3,1,3],[2]]}',
    '{"n":3,"blocks":[[1,2],[3,4]]}',
    '{"n":3,"blocks":[[0,1],[2,3]]}',
    '{"n":5,"blocks":[[1],[2],[4]]}',
    '{"n":1000000000,"blocks":[[1]]}',
    '{"n":3,"blocks":[[1,2],[2],[3]]}',
    '{"n":4,"blocks":[[1,4],[2,4],[3]]}',
    '{"n":4,"blocks":[[1,3],[2,4]]}',
    '{"n":2,"blocks":[[1,"2"]]}',
    '{"n":2,"blocks":[[1],2]}',
    '{"n":3,"blocks":[[1,2],[3]]}',
    '{"n":4,"blocks":[[1,2],[3,4]]}',
    '{"n":0,"blocks":[]}',
    '{"children":[{"color":2,"tree":{"children":[]}}]}',
]


def test_biject_bytes_pinned(monkeypatch, capsys):
    # stdout, stderr and the exit code of every case, pinned across rewrites
    # of validation and the bijections
    monkeypatch.delenv("NCL_LIMITS", raising=False)
    transcript, codes = [], []
    for data in BIJECT_INPUTS:
        for direction in ("theta", "lambda", "theta-inv", "lambda-inv"):
            code = cli.main(["biject", direction, data])
            captured = capsys.readouterr()
            transcript.append(f"{direction} {data}\n{code}\n{captured.out}{captured.err}")
            codes.append(str(code))
    digest = hashlib.sha256("".join(transcript).encode()).hexdigest()
    assert "".join(codes) == (
        "04004000040004000400040004000400400040004000400040004000220022042204220422042204"
        "22402240224022402240440044004400440044004400440044004400220022004400440044002222"
    )
    assert digest == "819be1b2a9a5dc2d1d985e883c6c45a6802c83db2e791f2e388225900793bfc1"


def test_biject_billion_point_ground_set_exit4():
    # refused by counting block sizes, before any array of n positions
    proc = run_cli("biject", "theta", '{"n":1000000000,"blocks":[[1]]}')
    assert proc.returncode == 4
    assert proc.stderr == ("error: 999999999 of the elements 1..1000000000 are not covered, "
                           "the smallest is 2\n")


BICOLOR_EDGE = '{"children":[{"color":1,"tree":{"children":[]}}]}'
PLANAR_EDGE = '{"children":[{"tree":{"children":[]}}]}'
LONG_SERIES = {n: json.dumps({"coeffs": ["1/3"] * n}) for n in (61, 300_000)}

# the refusals that a library call makes for itself: the CLI run, the input
# that the library call parses, the jsonio parser, the trees function
# applied to the result (None: the parser refuses) and the exception
LIBRARY_REFUSALS = [
    (["biject", "theta-inv", BICOLOR_EDGE], BICOLOR_EDGE, "parse_tree", "connected_from_tree",
     NotConnected),
    (["biject", "lambda-inv", PLANAR_EDGE], PLANAR_EDGE, "parse_tree", "ncls_from_bicolor",
     NotNclS),
    *[(argv, series, parse, None, LimitExceeded)
      for series in LONG_SERIES.values() for argv, parse in [
          (["transform", "m2k", series], "parse_moments"),
          (["transform", "k2m", series], "parse_cumulants"),
          (["transform", "t2m", series], "parse_tcoeffs"),
          (["convolve", "--tx", '{"coeffs":["1"]}', "--ty", series], "parse_tcoeffs"),
          (["convolve", "--mx", series, "--my", '{"coeffs":["1"]}'], "parse_moments"),
      ]],
]


@pytest.mark.parametrize(
    "argv, data, parse, function, exc", LIBRARY_REFUSALS,
    ids=[f"{a[0]}-{a[1]}-{len(d)}" for a, d, *_ in LIBRARY_REFUSALS],
)
def test_library_call_refuses_as_the_cli_does(capsys, argv, data, parse, function, exc):
    # the CLI checks none of these itself: it prints the library's refusal
    with pytest.raises(exc) as refusal:
        parsed = getattr(jsonio, parse)(json.loads(data))
        if function:
            getattr(trees, function)(parsed)
    assert type(refusal.value) is exc
    assert cli.main(argv) == (2 if exc is LimitExceeded else 4)
    assert capsys.readouterr() == ("", f"error: {refusal.value}\n")


def test_render_partition():
    proc = run_cli("render", '{"n":3,"blocks":[[1],[2],[3]]}')
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1].split() == ["1", "2", "3"]


def test_render_bicolor_chain():
    tree = {
        "children": [
            {
                "color": 1,
                "tree": {"children": [{"color": 0, "tree": {"children": []}}]},
            }
        ]
    }
    proc = run_cli("render", json.dumps(tree))
    assert proc.stdout.splitlines() == ["o", "|-o", "  :-o"]


def test_bad_json_exit2():
    proc = run_cli("render", "{not json")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("transform", "m2k", '{"coeffs":["1/0"]}'),
        ("transform", "m2k", '{"coeffs":null}'),
        ("render", '{"n":3,"blocks":null}'),
        ("render", "5"),
        ("transform", "m2k", "5"),
        ("transform", "m2k", "null"),
        ("biject", "theta-inv", "null"),
        ("render", '{"n":3,"blocks":[null]}'),
        ("render", '{"n":3,"blocks":["ab"]}'),
        ("render", '{"children":5}'),
        ("render", '{"children":[5]}'),
        ("render", '{"children":[{"tree":5}]}'),
        ("transform", "m2k", '{"coeffs":["1e5"]}'),
        ("transform", "m2k", '{"coeffs":["1","2.5E3"]}'),
        ("transform", "m2k", '{"coeffs":[true]}'),
        ("transform", "m2k", '{"coeffs":[' + "[" * 400 + "]" * 400 + "]}"),
        ("render", '{"n":3.7,"blocks":[[1,2,3]]}'),
        ("render", '{"n":true,"blocks":[[1]]}'),
        ("render", '{"n":"3","blocks":[[1,2,3]]}'),
        ("render", '{"children":[{"color":true,"tree":{}}]}'),
        ("transform", "m2k", '{"order":true,"coeffs":["1"]}'),
        ("transform", "m2k", '{"coeffs":[1e400]}'),
        ("transform", "m2k", '{"coeffs":[NaN]}'),
    ],
)
def test_malformed_json_exit2(args):
    # exit 1 means a failing identity; malformed input is a usage error
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert len(lines[0]) < 200


SERIES = '{"order":3,"coeffs":["1","1","0"]}'
TREE = '{"children":[]}'


@pytest.mark.parametrize(
    "args",
    [
        ("transform", "m2k", SERIES, "--format", "text"),
        ("transform", "m2k", SERIES, "--limit", "nc=3"),
        ("transform", "m2k", SERIES, "--unsafe-limits"),
        ("biject", "theta-inv", TREE, "--format", "text"),
        ("biject", "theta-inv", TREE, "--limit", "nc=1"),
        ("biject", "theta-inv", TREE, "--unsafe-limits"),
        ("render", TREE, "--format", "text"),
        ("render", TREE, "--limit", "nc=1"),
        ("render", TREE, "--unsafe-limits"),
        ("verify", "counts", "--limit", "nc=3"),
        ("verify", "counts", "--unsafe-limits"),
        ("convolve", "--tx", SERIES, "--ty", SERIES, "--format", "text"),
    ],
)
def test_flags_only_where_read(args):
    # a subcommand that would ignore a flag rejects it instead
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr


def test_verify_order_above_suite_maximum_exit2():
    proc = run_cli("verify", "prop21", "--order", "20")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: verify prop21 runs up to order 10 (requested 20)\n"
    # all checks every suite that reads --order; counts reads none
    assert verify.ORDERS.keys() == set(verify.SUITES) - {"counts"}
    proc = run_cli("verify", "all", "--order", "7")
    assert proc.returncode == 2
    assert "prop22 runs up to order 6" in proc.stderr


def test_verify_choices_are_the_suites():
    # the parser names the suites without importing verify
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert suite.choices == sorted(verify.SUITES) + ["all"]


def test_readme_order_table_matches_the_suites():
    # the README's | Suite | Default | Maximum | table is verify.ORDERS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| Suite | Default | Maximum |\n| --- | --- | --- |\n")[1]
    rows = {}
    for line in table.splitlines():
        if not line.startswith("|"):
            break
        suite, default, maximum = (cell.strip() for cell in line.strip("|").split("|"))
        rows[suite.strip("`")] = (int(default), int(maximum))
    assert rows == verify.ORDERS


def test_verify_transcripts_pinned(monkeypatch, capsys):
    # stdout and exit code of every suite at order 1, its default and its
    # maximum (with --order, and once without), of counts, and of all at its
    # defaults and at --order 1..5, in both formats; the (default, maximum)
    # orders are written out, not read from the table this pin guards
    orders = {"kreweras": (8, 8), "prop21": (7, 10), "prop22": (6, 6), "eq5": (7, 10),
              "bridge": (5, 5), "theorem": (5, 6)}
    monkeypatch.delenv("NCL_LIMITS", raising=False)
    runs = [["verify", "counts"], ["verify", "all"]]
    runs += [["verify", "all", "--order", str(k)] for k in range(1, 6)]
    for suite, (default, maximum) in orders.items():
        runs.append(["verify", suite])
        runs += [["verify", suite, "--order", str(k)] for k in sorted({1, default, maximum})]
    transcript = []
    for argv in runs:
        for fmt in ("text", "json"):
            code = cli.main([*argv, "--format", fmt])
            captured = capsys.readouterr()
            transcript.append(f"{' '.join(argv)} {fmt}\n{code}\n{captured.out}{captured.err}")
    digest = hashlib.sha256("".join(transcript).encode()).hexdigest()
    assert digest == "0cbb9728f5d3764cb59ce3b8f0069778784174251367c1c11ad3c59399577215"


def test_verify_prop21_and_eq5_at_order_10():
    entries = verify.run_suites(["prop21", "eq5"], order=10)
    assert len(entries) == 20
    assert all(e.passed for e in entries)


def test_verify_theorem_at_order_6():
    # three identities per n proved in Z[tx, ty], then the numeric pairs
    entries = verify.run_suites("theorem", order=6)
    assert len(entries) == 3 * 6 + verify.CORPUS_SIZE // 2 + 1
    assert all(e.passed for e in entries)


def test_verify_all_solves_only_for_its_numeric_pairs(monkeypatch):
    # the symbolic entries solve nothing numerically; each of theorem's numeric
    # pairs (the fixture and the seeded ones) takes m2k and m2t of both factors,
    # then k2m and m2t of the product, and each of bridge's m2t and m2k of both
    for module in (transforms, poly, verify):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    calls = []
    solve = transforms._solve

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(transforms, "_solve", counted)
    entries = verify.run_suites("all", seed=7)
    assert all(e.passed for e in entries)
    bridge_pairs = {e.parameters["pair"] for e in entries if e.suite == "bridge"}
    assert len(calls) == 6 * (verify.CORPUS_SIZE // 2 + 1) + 4 * len(bridge_pairs)


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "prop21", "--order", "0"),
        ("verify", "prop21", "--order", "-1"),
        ("verify", "counts", "--order", "0"),
        ("verify", "counts", "--order", "-1"),
        ("convolve", "--mx", SERIES, "--my", SERIES, "--order", "0"),
        ("convolve", "--mx", SERIES, "--my", SERIES, "--order", "-1"),
        ("enumerate", "nc", "-3"),
        ("enumerate", "nc", "-3", "--unsafe-limits"),
        ("enumerate", "ncs", "0"),
        ("enumerate", "trees", "0"),
    ],
)
def test_order_below_one_exit2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "at least 1" in lines[0]


def _path_tree_json(depth: int, edge: str) -> str:
    # built as text: json.dumps itself recurses once per level
    return edge * depth + TREE + "}]}" * depth


def _path_lambda_partition(depth: int) -> str:
    # the flat partition of a path of ``depth`` colour-1 edges under λ
    blocks = [[2 * k - 1, 2 * k + 1] for k in range(1, depth + 1)]
    blocks += [[2 * k] for k in range(1, depth + 1)] + [[2 * depth + 2]]
    return json.dumps({"n": 2 * depth + 2, "blocks": blocks})


PLAIN_EDGE = '{"children":[{"tree":'
BICOLOR_EDGE = '{"children":[{"color":1,"tree":'


@pytest.mark.parametrize(
    "args, stdin",
    [
        (("render", "-"), _path_tree_json(400, PLAIN_EDGE)),
        (("biject", "theta-inv", "-"), _path_tree_json(400, PLAIN_EDGE)),
        (("biject", "lambda-inv", "-"), _path_tree_json(400, BICOLOR_EDGE)),
        (("transform", "m2k", "-"), _path_tree_json(400, PLAIN_EDGE)),
        (("biject", "lambda", "-"), _path_lambda_partition(400)),
        (("biject", "theta", "-"),
         json.dumps({"n": 401, "blocks": [[k, k + 1] for k in range(1, 401)]})),
    ],
    ids=["render", "theta-inv", "lambda-inv", "transform", "lambda", "theta"],
)
def test_deep_json_exit2(args, stdin):
    # a 400-deep input, or a 400-deep result, exceeds the JSON codec's depth
    proc = run_cli(*args, stdin=stdin)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: the input or result is nested too deeply for JSON\n"


def test_uncovered_elements_message_is_short():
    proc = run_cli("render", '{"n":1000000,"blocks":[[1]]}')
    assert proc.returncode == 4
    assert proc.stderr == (
        "error: 999999 of the elements 1..1000000 are not covered, the smallest is 2\n"
    )


@pytest.mark.parametrize("direction, message", [
    ("theta", "has more than one connected component"),
    ("lambda", "is not parity-split"),
])
def test_domain_error_quotes_a_head_of_the_partition(direction, message):
    singletons = json.dumps({"n": 20000, "blocks": [[e] for e in range(1, 20001)]})
    proc = run_cli("biject", direction, singletons)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith("error: (1)(2)(3)") and proc.stderr.endswith(f"{message}\n")
    assert _one_short_line(proc.stderr)


@pytest.mark.parametrize("argv, code", [
    (["transform", "m2k", json.dumps({"coeffs": ["x" * 100_000]})], 2),
    (["transform", "m2k", json.dumps({"coeffs": ["1/" + "0" * 4000]})], 2),
    (["render", json.dumps({"n": 1, "blocks": [list(range(1, 100_001))]})], 4),
    (["render", json.dumps({"n": 100_000, "blocks": [[1, 1, *range(2, 100_001)]]})], 4),
    (["render", json.dumps({"n": 3, "blocks": [["a"] * 50_000]})], 2),
], ids=["coefficient", "zero-denominator", "block-leaves", "block-repeats", "block-not-ints"])
def test_refusal_quoting_a_long_input_is_one_short_line(capsys, argv, code):
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and _one_short_line(err) and " characters)" in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "nc"],
    ["verify", "counts", "--order"],
    ["verify", "counts", "--seed"],
    ["convolve", "--order"],
], ids=["enumerate-n", "verify-order", "verify-seed", "convolve-order"])
def test_integer_argument_refusal_quotes_a_head(digit_limit, argv):
    # argparse's own line, but for a head of an argument too long for int()
    value = "1" * (digit_limit + 700)
    proc = run_cli(*argv, value)
    *usage, last = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout) == (2, "") and usage
    quoted = f"{repr(value)[:40]}… ({len(value) + 2} characters)"
    assert last.endswith(f": invalid int value: {quoted}")
    assert len(last.encode()) <= 200
    assert run_cli(*argv, "x").stderr.endswith(": invalid int value: 'x'\n")


def test_shorten_never_lengthens_a_quote():
    for size in range(301):
        text = "7" * size
        assert len(shorten(text)) <= len(text), size
    assert shorten("7" * 57) == "7" * 57
    assert shorten("7" * 58) == f"{'7' * 40}… (58 characters)"


def test_verify_kreweras_passes():
    proc = run_cli("verify", "kreweras", "--order", "5", "--format", "text")
    assert proc.returncode == 0
    assert "FAIL" not in proc.stdout


def test_verify_counts_json_shape():
    proc = run_cli("verify", "counts")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["pass"] is True
    assert all("identity" in e and "suite" in e for e in data["entries"])


def test_verify_determinism_same_seed():
    # a second run reads warm caches; test_criterion_12_cli compares these
    # bytes across two processes
    a = run_cli("verify", "prop21", "--order", "4", "--seed", "7")
    b = run_cli("verify", "prop21", "--order", "4", "--seed", "7")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_enumerate_determinism():
    # two children have their own hash seeds, so a set-order dependence shows
    a = run_child("enumerate", "ncl", "4")
    b = run_child("enumerate", "ncl", "4")
    assert a.stdout == b.stdout


def test_verify_theorem_seeded():
    proc = run_cli("verify", "theorem", "--order", "4", "--seed", "7")
    assert proc.returncode == 0


def test_convolve_tseries():
    proc = run_cli(
        "convolve",
        "--tx", '{"order":3,"coeffs":["1","1","0"]}',
        "--ty", '{"order":3,"coeffs":["2","1/2","-1/8"]}',
    )
    assert json.loads(proc.stdout) == {"order": 3, "coeffs": ["2", "5/2", "3/8"]}


def test_convolve_theorem_mode():
    proc = run_cli(
        "convolve",
        "--mx", '{"order":4,"coeffs":["1","2","5","14"]}',
        "--my", '{"order":4,"coeffs":["2","5","14","42"]}',
        "--order", "4",
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["pass"] is True


@pytest.mark.parametrize(
    "inputs, env, flags, order",
    [
        (6, "theorem=4", (), 4),
        (6, None, ("--limit", "theorem=4"), 4),
        (7, None, ("--limit", "theorem=7", "--unsafe-limits"), 7),
        (8, None, ("--unsafe-limits",), 6),
    ],
    ids=["env-lowered", "flag-lowered", "flag-raised", "bare-unsafe"],
)
def test_convolve_default_order_follows_the_cap(monkeypatch, capsys, inputs, env, flags,
                                                order):
    # without --order, the run goes as far as both inputs and the theorem cap in force
    catalan = _series([comb(2 * n, n) // (n + 1) for n in range(1, inputs + 1)])
    if env is None:
        monkeypatch.delenv("NCL_LIMITS", raising=False)
    else:
        monkeypatch.setenv("NCL_LIMITS", env)
    code = cli.main(["convolve", "--mx", catalan, "--my", catalan, *flags])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["order"] == order and data["pass"] is True


CATALAN8 = '{"order":8,"coeffs":["1","2","5","14","42","132","429","1430"]}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "nc", "13"], "nc is capped at 12 (requested 13)"),
        (["enumerate", "ncls", "6"], "ncls is capped at 5 (requested 6)"),
        (["convolve", "--mx", CATALAN8, "--my", CATALAN8, "--order", "8"],
         "theorem is capped at 6 (requested 8)"),
    ],
    ids=["nc", "ncls", "convolve"],
)
def test_bare_unsafe_limits_raises_no_cap(monkeypatch, capsys, argv, message):
    # the flag only confirms a --limit or NCL_LIMITS override above the default
    monkeypatch.delenv("NCL_LIMITS", raising=False)
    code = cli.main([*argv, "--unsafe-limits"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _moments8():
    return jsonio.parse_moments(json.loads(CATALAN8))


# per cap kind: the CLI command and the library call for size n (and cap
# ``limit``), and whether the cap takes an override
CAP_REFUSALS = {
    **{kind: (lambda n, kind=kind: ("enumerate", kind, str(n)),
              lambda n, limit=None, fn=fn: fn(n, limit=limit), True)
       for kind, fn in [("nc", partitions.enumerate_nc), ("ncl", partitions.enumerate_ncl),
                        ("ncs", partitions.enumerate_ncs), ("ncls", partitions.enumerate_ncls),
                        ("trees", enumerate_planar_trees), ("bicolor", enumerate_bicolor)]},
    "theorem": (lambda n: ("convolve", "--mx", CATALAN8, "--my", CATALAN8, "--order", str(n)),
                lambda n, limit=None: transforms.verify_t_multiplicativity(
                    _moments8(), _moments8(), n, limit=limit), True),
    "transform": (lambda n: ("transform", "m2k", _series([1] * n)),
                  lambda n: transforms.moments_to_cumulants(transforms.MomentSequence([1] * n)),
                  False),
}
NINES = "9" * 4000


def _refusal_rows():
    """(argv, NCL_LIMITS, library call, message) per cap kind and entry point:
    a CLI argument, ``--limit``, ``NCL_LIMITS`` and a library call."""
    for kind, (argv, call, overridable) in CAP_REFUSALS.items():
        cap = DEFAULT_LIMITS[kind]
        over = f"{kind} is capped at {cap} (requested {cap + 1})"
        yield pytest.param(argv(cap + 1), None, None, over, id=f"{kind}-argument")
        yield pytest.param(None, None, partial(call, cap + 1), over, id=f"{kind}-library")
        if overridable:
            under = f"{kind} is capped at 2 (requested 3)"
            yield pytest.param((*argv(3), "--limit", f"{kind}=2"), None, None, under,
                               id=f"{kind}-limit-flag")
            yield pytest.param(argv(3), f"{kind}=2", None, under, id=f"{kind}-NCL_LIMITS")
            yield pytest.param(None, None, partial(call, 3, limit=2), under,
                               id=f"{kind}-library-limit")
    # sizes of 4,000 digits, which the refusal quotes by a head
    yield pytest.param(("verify", "theorem", "--order", NINES), None, None,
                       f"verify theorem runs up to order 6 (requested {NINES[:40]}… "
                       f"(4000 characters))", id="verify-order")
    yield pytest.param(("enumerate", "nc", "1" * 4000), None, None,
                       f"nc is capped at 12 (requested {'1' * 40}… (4000 characters))",
                       id="enumerate-size")
    yield pytest.param(("convolve", "--mx", CATALAN8, "--my", CATALAN8, f"--order=-{NINES}"),
                       None, None,
                       f"--order must be at least 1 (requested -{NINES[:39]}… (4001 characters))",
                       id="convolve-order")
    yield pytest.param(None, None, partial(partitions.enumerate_nc, -int(NINES)),
                       f"nc needs a size of at least 1 (requested -{NINES[:39]}… "
                       f"(4001 characters))", id="library-size")
    # sizes of 5,001 digits, over the limit on integers written as text
    huge, head = 10 ** 5000, "1" + "0" * 39
    over_the_digit_limit = pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", int)(), reason="no digit limit")
    for call, message in [
        (partial(partitions.enumerate_nc, huge), "nc is capped at 12"),
        (partial(enumerate_planar_trees, huge), "trees is capped at 10"),
        (partial(verify.run_suites, "all", order=huge), "verify kreweras runs up to order 8"),
    ]:
        yield pytest.param(None, None, call, f"{message} (requested {head}… (5001 characters))",
                           id=f"library-{message.split()[0]}-over-the-digit-limit",
                           marks=over_the_digit_limit)
    yield pytest.param(None, None, partial(partitions.enumerate_nc, -huge),
                       f"nc needs a size of at least 1 (requested -{head[:39]}… "
                       f"(5002 characters))", id="library-size-over-the-digit-limit",
                       marks=over_the_digit_limit)


def _refuse(argv, limits, call):
    """A CLI run's exit code, stdout and stderr; for a library call, those
    that ``cli.main`` gives for the exception it raises."""
    if argv is not None:
        proc = run_cli(*argv, limits=limits)
        return proc.returncode, proc.stdout, proc.stderr
    try:
        call()
    except (LimitExceeded, ValueError) as exc:
        return 2, "", f"error: {exc}\n"
    return 0, "", ""


@pytest.mark.parametrize("argv, limits, call, message", _refusal_rows())
def test_every_cap_refusal_is_one_short_line_before_any_work(argv, limits, call, message):
    # this file imports every module a command loads; a warm-up run would
    # fill the enumerators' caches and hide work done before the cap check
    tracemalloc.start()
    try:
        code, out, err = _refuse(argv, limits, call)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert _one_short_line(err)
    # a refusal after the work would hold NC(13) or more; the CLI's own
    # parser and buffers peak under 70 KiB
    assert peak < 256 * 1024, peak


# per exception class of ``errors`` other than LimitExceeded (the cap table
# above): a CLI run that ends in it, or None where no command reaches it, and
# a library call that raises it
ERROR_REFUSALS = {
    errors.NotAPartition: (None, partial(partitions.validate_nc, 3, [[1, 2], [2, 3]])),
    errors.NotACover: (["biject", "theta", '{"n":3,"blocks":[[1,2]]}'],
                       partial(partitions.validate_ncl, 3, [[1, 2]])),
    errors.Crossing: (["biject", "theta", '{"n":4,"blocks":[[1,3],[2,4]]}'],
                      partial(partitions.validate_ncl, 4, [[1, 3], [2, 4]])),
    errors.BadLink: (["render", '{"n":3,"blocks":[[1,2],[1,3]]}'],
                     partial(partitions.validate_ncl, 3, [[1, 2], [1, 3]])),
    errors.SizeMismatch: (["convolve", "--tx", '{"coeffs":["1"]}', "--ty", '{"coeffs":["1","2"]}'],
                          lambda: transforms.t_convolve(transforms.TCoeffSequence([1]),
                                                        transforms.TCoeffSequence([1, 2]))),
    errors.BlockStraddlesSet: (None, lambda: partitions.restrict(
        partitions.validate_nc(3, [[1, 2], [3]]), {1})),
    errors.OddGroundSet: (None, lambda: partitions.is_ncs(partitions.validate_nc(3, [[1, 2, 3]]))),
    errors.NotConnected: (["biject", "theta", '{"n":4,"blocks":[[1,2],[3,4]]}'],
                          lambda: trees.tree_from_connected(
                              partitions.validate_ncl(4, [[1, 2], [3, 4]]))),
    errors.NotNclS: (["biject", "lambda", '{"n":3,"blocks":[[1,2,3]]}'],
                     lambda: trees.bicolor_from_ncls(partitions.validate_ncl(3, [[1, 2, 3]]))),
    errors.ZeroFirstMoment: (["transform", "m2t", '{"coeffs":["0","1"]}'],
                             lambda: transforms.moments_to_tcoeffs(
                                 transforms.MomentSequence([0, 1]))),
    errors.ZeroT0: (["transform", "t2m", '{"coeffs":["0","1"]}'],
                    partial(transforms.TCoeffSequence, [0, 1])),
    errors.OrderTooLow: (["transform", "m2k", '{"coeffs":[]}'],
                         partial(transforms.MomentSequence, [])),
    errors.LetterNotInDomain: (None, lambda: freeness.mixed_moment(
        freeness.Scenario({"X": transforms.CumulantSequence([1])}),
        freeness.Word([freeness.Letter("Y")]))),
}


def test_every_error_class_has_a_refusal_row():
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.NonCrossingError)}
    assert classes - {errors.NonCrossingError, LimitExceeded} == set(ERROR_REFUSALS)


@pytest.mark.parametrize("cls", ERROR_REFUSALS, ids=lambda cls: cls.__name__)
def test_every_error_class_is_one_short_line(monkeypatch, cls):
    # exit 3 for a vanishing first moment or t_0, 4 for every other domain error
    argv, call = ERROR_REFUSALS[cls]
    with pytest.raises(cls) as raised:
        call()
    assert type(raised.value) is cls
    if argv is None:  # the CLI prints the library's refusal, from any command
        monkeypatch.setattr(cli, "_cmd_render", lambda args: call())
        argv = ["render", "{}"]
    proc = run_cli(*argv)
    code = 3 if cls in (errors.ZeroFirstMoment, errors.ZeroT0) else 4
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", f"error: {raised.value}\n")
    assert _one_short_line(proc.stderr)


@pytest.mark.parametrize("argv", [
    ("convolve", "--tx", SERIES, "--ty", SERIES),
    ("transform", "m2k", SERIES),
    ("biject", "theta", '{"n":2,"blocks":[[1,2]]}'),
    ("render", '{"n":2,"blocks":[[1,2]]}'),
    ("verify", "bridge", "--order", "2"),
], ids=lambda argv: argv[0])
def test_malformed_ncl_limits_leaves_uncapped_runs_alone(argv):
    # NCL_LIMITS is read only by a run with a cap kind
    clean = run_cli(*argv)
    assert clean.returncode == 0
    for limits in ("bogus=1", "nc=", "nc=0,,theorem=x"):
        proc = run_cli(*argv, limits=limits)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, clean.stdout, "")


def test_convolve_requires_arguments():
    proc = run_cli("convolve")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "args, flag",
    [
        (("--tx", SERIES, "--ty", SERIES, "--order", "2"), "--order"),
        (("--tx", SERIES, "--ty", SERIES, "--unsafe-limits"), "--unsafe-limits"),
        (("--tx", SERIES, "--ty", SERIES, "--mx", SERIES), "--mx"),
        (("--tx", SERIES, "--ty", SERIES, "--my", SERIES, "--mx", SERIES), "--mx"),
        (("--tx", SERIES, "--mx", SERIES, "--my", SERIES), "--tx"),
        (("--ty", SERIES, "--mx", SERIES, "--my", SERIES), "--ty"),
    ],
)
def test_convolve_refuses_the_other_modes_flags(monkeypatch, capsys, args, flag):
    # a flag that only the other mode reads is a usage error, not ignored
    monkeypatch.delenv("NCL_LIMITS", raising=False)
    code = cli.main(["convolve", *args])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag} ")


def _singleton_complement(original):
    def broken(gamma):
        return NCPartition(gamma.n, tuple((i,) for i in range(1, gamma.n + 1)))

    return broken


def _mirrored_complement(original):
    # e -> n + 1 - e keeps the block sizes, so only maximality can see it
    def broken(gamma):
        n = gamma.n
        return NCPartition(n, tuple(sorted(tuple(sorted(n + 1 - e for e in b))
                                           for b in original(gamma).blocks)))

    return broken


def _always_compatible(original):
    return lambda gaps, bars: True


def _off_by_one(original):
    return lambda *args: original(*args) + 1


def _off_by_one_above_first(original):
    # a +1 at n = 1 breaks m_1, and the suite then exits 4 before comparing
    return lambda kx, ky, n: original(kx, ky, n) + (n > 1)


def _drop_one(original):
    return lambda n, **kwargs: original(n, **kwargs)[1:]


def _first_multiplicity_off_by_one(original):
    return lambda *args: tuple((monomial, count + (i == 0))
                               for i, (monomial, count) in enumerate(original(*args)))


def _top_coefficient_off_by_one(original):
    # the highest cumulant's first monomial, on copies: the cache keeps the true ones
    def broken(order):
        *lower, top = original(order)
        first = min(top)
        return (*lower, {**top, first: top[first] + 1})

    return broken


def _weight_off_by_one(original):
    # [z^d] A of each power-table row from d = 2 on, which every solve reads
    def broken(rows, a):
        original(rows, a)
        nums, den = rows[-1]
        if len(nums) > 2:
            nums[1] += den

    return broken


def _drop_first(original):
    # the block stream of NCL(n) loses its first member
    return lambda n, linked, **kwargs: islice(original(n, linked, **kwargs),
                                              1 if linked else 0, None)


def _repeat_first(original):
    # the first member of NC(n) again in place of the second: the count
    # still holds
    def repeated(n, linked, **kwargs):
        members = original(n, linked, **kwargs)
        if linked:
            yield from members
            return
        first = next(members)
        yield first
        if next(members, None) is not None:
            yield first
        yield from members

    return repeated


def _with_one(original):
    return lambda pi: original(pi) | {1}


def _all_singletons(original):
    return lambda n, blocks: original(n, [[i] for i in range(1, n + 1)])


def _off_by_one_on_mixed_words(original):
    def broken(scenario, word):
        letters = getattr(word, "letters", word)
        return original(scenario, word) + (len({l.algebra for l in letters}) > 1)

    return broken


def _off_by_one_on_mixed_subwords(original):
    # freeness._moments tables reduced pairs keyed by index tuples into letters
    def broken(scenario, letters, subs):
        return {sub: (p + q, q) if len({letters[i].algebra for i in sub}) > 1 else (p, q)
                for sub, (p, q) in original(scenario, letters, subs).items()}

    return broken


@pytest.mark.parametrize(
    "module, suite, attr, corrupt, identity, witness_keys",
    [
        (verify, "kreweras", "kreweras", _singleton_complement, "block count identity",
         {"partition", "complement"}),
        (verify, "kreweras", "kreweras", _mirrored_complement, "complement maximality",
         {"partition", "complement", "reason"}),
        (verify, "kreweras", "_compatible", _always_compatible, "complement maximality",
         {"partition", "complement", "coarser"}),
        (verify, "prop21", "_class_profile", _first_multiplicity_off_by_one,
         "cumulant via connected linked classes", {"monomial", "series", "sum"}),
        (verify, "eq5", "_tree_profile", _drop_one,
         "cumulant via planar tree sum", {"monomial", "series", "sum"}),
        (verify, "counts", "iter_blocks", _drop_first, "linked partition count",
         {"got", "expected"}),
        (verify, "counts", "iter_blocks", _repeat_first, "non-crossing partition count",
         {"got", "expected", "out_of_order"}),
        (transforms, "theorem", "free_multiplicative", _off_by_one_above_first,
         "t-series multiplicativity", {"identity", "parameters", "lhs", "rhs"}),
        (verify, "bridge", "ncls_weight", _off_by_one,
         "split-partition weight equals bicolor evaluation",
         {"partition", "weight", "tree value"}),
        (freeness, "prop22", "_moments", _off_by_one_on_mixed_subwords,
         "mixed words have vanishing cumulants and t-coefficients",
         {"word", "kind", "value"}),
        (freeness, "prop22", "mixed_cumulant", _off_by_one_on_mixed_words,
         "mixed words have vanishing cumulants and t-coefficients",
         {"word", "kind", "value"}),
        (verify, "counts", "connected_components", _singleton_complement,
         "fixture connected components", {"got"}),
        (verify, "counts", "exterior_blocks", _drop_one, "fixture exterior blocks", {"got"}),
        (verify, "counts", "non_minimal_elements", _with_one,
         "fixture non-minimal positions", {"got"}),
        (verify, "counts", "validate_nc", _all_singletons,
         "fixture ten-point partition validates", {"got"}),
        (transforms, "convolve", "free_multiplicative", _off_by_one_above_first,
         "t-coefficient product rule", {"lhs", "rhs"}),
        (verify, "prop21", "cumulant_polynomials", _top_coefficient_off_by_one,
         "cumulant via connected linked classes", {"monomial", "series", "sum"}),
        (verify, "eq5", "cumulant_polynomials", _top_coefficient_off_by_one,
         "cumulant via planar tree sum", {"monomial", "series", "sum"}),
        (transforms, "theorem", "_power_row", _weight_off_by_one,
         "t-series multiplicativity", {"identity", "parameters", "lhs", "rhs"}),
        (verify, "theorem", "_kreweras_profile", _drop_one,
         "aggregate Kreweras identity", {"monomial", "series", "sum"}),
        (verify, "theorem", "_bicolor_profile", _first_multiplicity_off_by_one,
         "aggregate tree identity", {"monomial", "series", "sum"}),
        (verify, "theorem", "cumulant_polynomials", _top_coefficient_off_by_one,
         "aggregate Kreweras identity", {"monomial", "series", "sum"}),
    ],
    ids=["kreweras", "maximality-mirrored", "maximality-no-crossings", "prop21", "eq5",
         "counts", "counts-duplicate", "theorem", "bridge", "prop22", "prop22-cumulant",
         "fixture-components", "fixture-exterior", "fixture-non-minimal", "fixture-ten-point",
         "convolve", "series-prop21", "series-eq5", "theorem-power-row",
         "theorem-kreweras-profile", "theorem-bicolor-profile", "series-theorem"],
)
def test_fault_injection_reports_witness(
    monkeypatch, capsys, module, suite, attr, corrupt, identity, witness_keys
):
    # a corrupted computation must turn its suite red, and an entry (a convolve
    # check) carries a witness exactly when it fails
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    monkeypatch.delenv("NCL_LIMITS", raising=False)
    catalan = _series([comb(2 * n, n) // (n + 1) for n in range(1, 7)])
    argv = (["convolve", "--mx", catalan, "--my", catalan] if suite == "convolve"
            else ["verify", suite, "--order", "4"])
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 1
    data = json.loads(out)
    assert data["pass"] is False
    entries = data["checks" if suite == "convolve" else "entries"]
    assert all(("witness" in e) != e["pass"] for e in entries)
    failed = [e for e in entries if e["identity"] == identity and not e["pass"]]
    assert failed
    assert all(set(e["witness"]) == witness_keys for e in failed)


@pytest.mark.parametrize("argv, corrupt, code", [
    (["verify", "counts", "--format", "text"], None, 0),
    (["verify", "counts", "--format", "text"], _drop_first, 1),
    (["transform", "m2k", '{"coeffs":["1","2"]}'], None, 0),
], ids=["verify-pass", "verify-fail", "transform"])
def test_closed_stdout_keeps_the_exit_code(monkeypatch, argv, corrupt, code):
    if corrupt is not None:
        monkeypatch.setattr(verify, "iter_blocks", corrupt(verify.iter_blocks))
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert cli.main(argv) == code


# bounded JSON values: arbitrary ones, and objects shaped like the inputs
# (partitions, trees, series) with arbitrary values in some places
_scalars = (st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-4, 4)
            | st.sampled_from(["1", "-1/2", "0", "ab", "1/0", ""]))
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["n", "blocks", "coeffs", "order", "children", "tree", "color"]),
        inner, max_size=4,
    ),
    max_leaves=12,
)
_partition_objects = st.fixed_dictionaries({
    "n": st.integers(1, 6) | _json_values,
    "blocks": st.lists(st.lists(st.integers(1, 6), max_size=3) | _json_values,
                       max_size=4) | _json_values,
})
_tree_objects = st.recursive(
    st.just({}),
    lambda sub: st.fixed_dictionaries({
        "children": st.lists(
            st.fixed_dictionaries({"tree": sub | _json_values},
                                  optional={"color": st.integers(0, 1) | _json_values})
            | _json_values,
            max_size=3,
        ) | _json_values,
    }),
    max_leaves=8,
)
_series_objects = st.fixed_dictionaries(
    {"coeffs": st.lists(_scalars, max_size=8) | _json_values},
    optional={"order": st.integers(0, 8) | _json_values},
)
_subcommands = st.sampled_from(
    [["transform", d] for d in ("m2k", "k2m", "m2t", "t2m")]
    + [["render"]]
    + [["biject", d] for d in ("theta", "theta-inv", "lambda", "lambda-inv")]
)


@given(_subcommands, _json_values | _partition_objects | _tree_objects | _series_objects)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzz_exit_codes(monkeypatch, capsys, argv, value):
    # any JSON value ends in a documented exit code, never a traceback
    monkeypatch.delenv("NCL_LIMITS", raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(value)))
    code = cli.main([*argv, "-"])
    err = capsys.readouterr().err
    assert code in {0, 2, 3, 4}
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


# the process entry, cli.run, turns the cyclic collector off: it rests on
# the library making no reference cycles, whatever the size of a run


def test_suites_leave_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        entries = verify.run_suites("all")
        assert entries and all(e.passed for e in entries)
        assert gc.collect() == 0
    finally:
        gc.enable()


_SERIES_60 = _series([f"{i % 7 + 1}/{i % 5 + 1}" for i in range(60)])
_CATALAN_6 = _series([1, 2, 5, 14, 42, 132])
_STAR_TREE = json.dumps({"children": [{"tree": {"children": []}}] * 2000})


@pytest.mark.parametrize("tiny, large", [
    (["enumerate", "nc", "2"], ["enumerate", "ncl", "9"]),
    (["enumerate", "nc", "2", "--format", "text"], ["enumerate", "ncl", "9", "--format", "text"]),
    (["transform", "m2k", _series([1])], ["transform", "m2t", _SERIES_60]),
    (["biject", "theta-inv", '{"children":[]}'], ["biject", "theta-inv", _STAR_TREE]),
    (["biject", "theta", '{"n":1,"blocks":[[1]]}'],
     ["biject", "theta", json.dumps({"n": 2000, "blocks": [list(range(1, 2001))]})]),
    (["render", '{"n":1,"blocks":[[1]]}'],
     ["render", json.dumps({"n": 400, "blocks": [[i] for i in range(1, 401)]})]),
    (["verify", "counts", "--order", "1"], ["verify", "all"]),
    (["verify", "counts", "--order", "1", "--format", "text"], ["verify", "all", "--format", "text"]),
    (["convolve", "--tx", _series([1]), "--ty", _series([1])],
     ["convolve", "--tx", _SERIES_60, "--ty", _SERIES_60]),
    (["convolve", "--mx", _series([1]), "--my", _series([1])],
     ["convolve", "--mx", _CATALAN_6, "--my", _CATALAN_6]),
], ids=["enumerate", "enumerate-text", "transform", "biject-inverse", "biject", "render",
        "verify", "verify-text", "convolve-t", "convolve-m"])
def test_cyclic_garbage_of_a_command_does_not_grow_with_its_input(tiny, large):
    # argparse's parser (and the indenting JSON encoder) are the only cyclic
    # garbage of a command, so a large input leaves as much as a tiny one
    def cyclic_garbage(argv):
        gc.collect()
        gc.disable()
        try:
            proc = run_cli(*argv)
            return proc.returncode, gc.collect()
        finally:
            gc.enable()

    cyclic_garbage(tiny)  # the modules a command loads are imported once
    small = cyclic_garbage(tiny)
    assert small[0] == 0 and small[1] > 0
    assert cyclic_garbage(large) == small
