"""Command-line interface.

Subcommands: ``enumerate``, ``transform``, ``biject``, ``render``,
``verify``, ``convolve``.  Objects travel as JSON (one object per line
for enumerations); identical invocations produce identical bytes.

Exit codes: 0 success, 1 verification failure, 2 usage or cap errors,
3 vanishing-first-moment errors, 4 domain violations.  A reader that
closes stdout early (``| head``) changes none of them.

Each subcommand imports the modules it runs when it runs, so a process
compiles only those: ``transform`` loads no partition or tree module.
The CLI only parses arguments, dispatches and prints: every check of the
input is made by the library function that reads it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from importlib import import_module

from . import jsonio
from .errors import LimitExceeded, NonCrossingError, ZeroFirstMoment, ZeroT0, shorten
from .limits import DEFAULT_LIMITS

# the tables below name public functions; the package imports the module
# that defines one when it is first read (PEP 562)
_package = import_module(__package__)

# kind -> enumerator; NC(n) and NCL(n) stream, so a dump keeps none of them
_ENUMERATORS = {
    "nc": "iter_nc",
    "ncl": "iter_ncl",
    "ncs": "enumerate_ncs",
    "ncls": "enumerate_ncls",
    "trees": "enumerate_planar_trees",
    "bicolor": "enumerate_bicolor",
}

# command -> direction -> (input parser in jsonio, function)
_ROUTES = {
    "transform": {
        "m2k": ("parse_moments", "moments_to_cumulants"),
        "k2m": ("parse_cumulants", "cumulants_to_moments"),
        "m2t": ("parse_moments", "moments_to_tcoeffs"),
        "t2m": ("parse_tcoeffs", "tcoeffs_to_moments"),
    },
    "biject": {
        "theta": ("parse_ncl", "tree_from_connected"),
        "theta-inv": ("parse_tree", "connected_from_tree"),
        "lambda": ("parse_ncl", "bicolor_from_ncls"),
        "lambda-inv": ("parse_tree", "ncls_from_bicolor"),
    },
}

# sorted(verify.SUITES), named here so that building the parser imports no
# suite; a test keeps the two equal
_SUITES = ("bridge", "counts", "eq5", "kreweras", "prop21", "prop22", "theorem")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _text(arg: str) -> str:
    """A ``DATA`` argument: JSON text, or ``-`` to read it from stdin."""
    return sys.stdin.read() if arg == "-" else arg


def _integer(arg: str) -> int:
    """``int(arg)``; a refusal quotes only the head of a long argument."""
    try:
        return int(arg)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {shorten(repr(arg))}") from None


def _parse_limit_specs(specs) -> dict[str, int]:
    overrides: dict[str, int] = {}
    # int() refuses a longer digit string with a hint naming its own setting;
    # 0 means no limit, as before Python 3.11
    max_digits = getattr(sys, "get_int_max_str_digits", int)()
    for spec in specs:
        kind, _, value = spec.partition("=")
        kind, value = kind.strip(), value.strip()
        quoted = shorten(repr(spec))
        # str.isdigit alone also passes other scripts' digits; no size fits a cap of 0
        if kind not in DEFAULT_LIMITS or not (value.isascii() and value.isdigit()
                                              and value.lstrip("0")):
            raise LimitExceeded(f"bad limit spec {quoted}; use KIND=N")
        if max_digits and len(value) > max_digits:
            raise LimitExceeded(f"bad limit spec {quoted}; the {kind} cap has {len(value)} "
                                f"digits, over the limit of {max_digits} on integers read as text")
        overrides[kind] = int(value)
    return overrides


def _resolve_limit(args, kind: str | None) -> int | None:
    """The cap in force for ``kind``: the default unless ``--limit`` or
    ``NCL_LIMITS`` overrides it; ``--limit`` may name only ``kind``.  A run
    with no cap kind (None) reads no ``NCL_LIMITS``, takes no ``--limit`` and
    gets None.  ``--unsafe-limits`` only confirms an override above the
    default; on its own it raises no cap."""
    # NCL_LIMITS is shell-wide, so only its entry for ``kind`` applies
    env = os.environ.get("NCL_LIMITS", "") if kind else ""
    overrides = _parse_limit_specs(s for s in env.split(",") if s.strip())
    flags = _parse_limit_specs(args.limit or [])
    unused = sorted(set(flags) - {kind})
    if unused:
        raise LimitExceeded(f"--limit names {unused[0]}, which this {args.command} run "
                            "does not cap")
    overrides.update(flags)
    if kind not in overrides:
        return DEFAULT_LIMITS.get(kind)
    cap = overrides[kind]
    if cap > DEFAULT_LIMITS[kind] and not args.unsafe_limits:
        raise LimitExceeded(f"raising the {kind} cap above {DEFAULT_LIMITS[kind]} "
                            "requires --unsafe-limits")
    return cap


def _print_lines(lines) -> None:
    """Print each line as it comes; every command writes its stdout here.

    A reader that closes the pipe early ends the output quietly and leaves
    the exit code to the command: stdout then points at the null device, so
    the flush at exit has nothing left to report.
    """
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _enumeration_lines(objects, fmt: str):
    count = 0
    for count, obj in enumerate(objects, 1):
        yield _dump(obj.to_json_dict()) if fmt == "json" else str(obj)
    yield _dump({"count": count}) if fmt == "json" else f"count {count}"


def _cmd_enumerate(args) -> int:
    limit = _resolve_limit(args, args.kind)
    enumerator = getattr(_package, _ENUMERATORS[args.kind])
    # the enumerator checks the cap before it yields, so a refusal prints nothing
    objects = enumerator(args.n, limit=limit)
    _print_lines(_enumeration_lines(objects, args.format))
    return 0


def _cmd_route(args) -> int:
    """``transform`` and ``biject``: parse ``DATA`` and apply the function
    of the direction."""
    parse, name = _ROUTES[args.command][args.direction]
    out = getattr(_package, name)(getattr(jsonio, parse)(jsonio.read_object(args.data)))
    _print_lines([_dump(out.to_json_dict())])
    return 0


def _cmd_render(args) -> int:
    from . import render

    data = jsonio.read_object(args.data)
    if "blocks" in data:
        obj = jsonio.parse_ncl(data)
    elif "children" in data:
        obj = jsonio.parse_tree(data)
    else:
        raise ValueError("expected a partition or tree object")
    _print_lines([render.render(obj)])
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    entries = verify.run_suites(args.suite, order=args.order, seed=args.seed)
    passed = all(e.passed for e in entries)
    if args.format == "json":
        lines = [json.dumps({"pass": passed, "entries": [e.to_json_dict() for e in entries]},
                            sort_keys=True, indent=2)]
    else:
        lines = [e.text_line() for e in entries]
        lines.append(f"{'PASS' if passed else 'FAIL'} {len(entries)} identities")
    _print_lines(lines)
    return 0 if passed else 1


def _cmd_convolve(args) -> int:
    t_mode = args.tx is not None and args.ty is not None
    if not t_mode and (args.mx is None or args.my is None):
        raise ValueError("convolve needs either --tx/--ty or --mx/--my")
    # each mode refuses the flags that only the other mode reads
    mode, foreign = (("--tx/--ty", ("mx", "my", "order", "unsafe_limits")) if t_mode
                     else ("--mx/--my", ("tx", "ty")))
    stray = [a for a in foreign
             if getattr(args, a) is not None and getattr(args, a) is not False]
    if stray:
        raise ValueError(f"--{stray[0].replace('_', '-')} is not read by convolve {mode}")
    # both lists are checked against the transform cap before either is parsed
    if t_mode:
        _resolve_limit(args, None)
        tx, ty = map(jsonio.parse_tcoeffs, [*map(jsonio.read_series, (args.tx, args.ty))])
        _print_lines([_dump(_package.t_convolve(tx, ty).to_json_dict())])
        return 0
    mx, my = map(jsonio.parse_moments, [*map(jsonio.read_series, (args.mx, args.my))])
    order = args.order
    if order is not None and order < 1:
        raise ValueError(f"--order must be at least 1 (requested {shorten(str(order))})")
    limit = _resolve_limit(args, "theorem")
    if order is None:
        order = min(mx.order, my.order, limit)
    report = _package.verify_t_multiplicativity(mx, my, order, limit=limit)
    _print_lines([json.dumps(report.to_json_dict(), sort_keys=True, indent=2)])
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noncrossing",
        description="Exact non-crossing partition combinatorics and transforms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def limit_flags(p):
        p.add_argument("--limit", action="append", metavar="KIND=N",
                       help="override an enumeration cap (may repeat)")
        p.add_argument("--unsafe-limits", action="store_true", help="allow caps above the defaults")

    p = sub.add_parser("enumerate", help="list a combinatorial family")
    p.add_argument("kind", choices=sorted(_ENUMERATORS))
    p.add_argument("n", type=_integer)
    p.add_argument("--format", choices=["json", "text"], default="json")
    limit_flags(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("transform", help="convert between coefficient sequences")
    p.add_argument("direction", choices=list(_ROUTES["transform"]))
    p.add_argument("data", type=_text, help="series JSON, or - for stdin")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("biject", help="apply a tree bijection")
    p.add_argument("direction", choices=list(_ROUTES["biject"]))
    p.add_argument("data", type=_text, help="object JSON, or - for stdin")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("render", help="draw a partition or tree as ASCII")
    p.add_argument("data", type=_text, help="object JSON, or - for stdin")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("verify", help="run identity suites")
    p.add_argument("suite", choices=[*_SUITES, "all"])
    p.add_argument("--order", type=_integer, default=None)
    p.add_argument("--seed", type=_integer, default=7)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("convolve", help="multiply t-series or verify multiplicativity")
    p.add_argument("--tx", type=_text, help="first t-coefficient series JSON")
    p.add_argument("--ty", type=_text, help="second t-coefficient series JSON")
    p.add_argument("--mx", type=_text, help="first moment series JSON")
    p.add_argument("--my", type=_text, help="second moment series JSON")
    p.add_argument("--order", type=_integer, default=None)
    limit_flags(p)
    p.set_defaults(func=_cmd_convolve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LimitExceeded, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ZeroFirstMoment, ZeroT0) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonCrossingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RecursionError:
        # the JSON codec and jsonio's tree parse recurse once per level; the
        # decoder's own limit bounds the depth of every input tree
        print("error: the input or result is nested too deeply for JSON", file=sys.stderr)
        return 2


def run() -> int:
    """The process entry of ``python -m noncrossing`` and of the installed
    ``noncrossing`` script: :func:`main` with the cyclic collector off.

    The library makes no reference cycles, so the collector finds nothing
    in a run but argparse's parser.  Freezing every object before the
    interpreter exits keeps the collection at shutdown, which runs even
    when the collector is off, from walking the caches.  :func:`main`
    itself leaves the collector as it finds it.
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
