"""How the tests run the command line.

``run_cli`` calls ``cli.main`` in this process; every CLI test goes through
it.  ``run_child`` and ``open_child`` start ``python -m noncrossing`` with the
inherited environment (``PYTHONPATH`` included), and only the tests that
``tests/test_tooling.py`` names call them, each for what only a separate
process shows: a real closed pipe, an inherited environment, the ``-m``
entry, or equal bytes from two processes with their own hash seeds.

Both runs return ``subprocess.CompletedProcess(args, returncode, stdout,
stderr)`` with text output, and both drop any ``NCL_LIMITS`` the caller
exported, so a cap set in a shell does not change a test; ``limits`` sets
``NCL_LIMITS`` for the one run.
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from noncrossing import cli

CHILD = (sys.executable, "-m", "noncrossing")


def run_cli(*args, stdin=None, limits=None):
    """``cli.main(list(args))`` with ``stdin`` as standard input and the
    output captured; an argparse exit becomes the return code, and any other
    exception propagates."""
    exported, real_stdin = os.environ.pop("NCL_LIMITS", None), sys.stdin
    if limits is not None:
        os.environ["NCL_LIMITS"] = limits
    sys.stdin = io.StringIO(stdin or "")
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = real_stdin
        os.environ.pop("NCL_LIMITS", None)
        if exported is not None:
            os.environ["NCL_LIMITS"] = exported
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())


def _child_env(limits):
    env = {k: v for k, v in os.environ.items() if k != "NCL_LIMITS"}
    if limits is not None:
        env["NCL_LIMITS"] = limits
    return env


def run_child(*args, stdin=None, limits=None):
    """The same run in a ``python -m noncrossing`` child process."""
    return subprocess.run([*CHILD, *args], capture_output=True, text=True, input=stdin,
                          env=_child_env(limits))


def open_child(*args):
    """A ``python -m noncrossing`` child with byte pipes on stdout and stderr,
    for a test that reads part of its output."""
    return subprocess.Popen([*CHILD, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env(None))
