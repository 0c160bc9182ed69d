"""Command-line interface.

Subcommands: ``enumerate``, ``transform``, ``biject``, ``render``,
``verify``, ``convolve``.  Objects travel as JSON (one object per line
for enumerations); identical invocations produce identical bytes.

Exit codes: 0 success, 1 verification failure, 2 usage or cap errors,
3 vanishing-first-moment errors, 4 domain violations.  A reader that
closes stdout early (``| head``) changes none of them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonio, render, verify
from .errors import (
    LimitExceeded,
    NonCrossingError,
    NotConnected,
    NotNclS,
    ZeroFirstMoment,
    ZeroT0,
)
from .limits import DEFAULT_LIMITS, check_limit
from .partitions import enumerate_ncls, enumerate_ncs, iter_nc, iter_ncl
from .transforms import (
    cumulants_to_moments,
    moments_to_cumulants,
    moments_to_tcoeffs,
    t_convolve,
    tcoeffs_to_moments,
    verify_t_multiplicativity,
)
from .trees import (
    BicolorPlanarTree,
    PlanarTree,
    bicolor_from_ncls,
    connected_from_tree,
    enumerate_bicolor,
    enumerate_planar_trees,
    ncls_from_bicolor,
    tree_from_connected,
)

# NC(n) and NCL(n) stream, so a dump keeps none of them
_ENUMERATORS = {
    "nc": iter_nc,
    "ncl": iter_ncl,
    "ncs": enumerate_ncs,
    "ncls": enumerate_ncls,
    "trees": enumerate_planar_trees,
    "bicolor": enumerate_bicolor,
}

# direction -> (input parser, transform)
_TRANSFORMS = {
    "m2k": (jsonio.parse_moments, moments_to_cumulants),
    "k2m": (jsonio.parse_cumulants, cumulants_to_moments),
    "m2t": (jsonio.parse_moments, moments_to_tcoeffs),
    "t2m": (jsonio.parse_tcoeffs, tcoeffs_to_moments),
}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_data(raw: str) -> dict:
    if raw == "-":
        raw = sys.stdin.read()
    data = json.loads(raw)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    return data


def _parse_limit_specs(specs) -> dict[str, int]:
    overrides: dict[str, int] = {}
    for spec in specs:
        kind, _, value = spec.partition("=")
        kind, value = kind.strip(), value.strip()
        # str.isdigit alone also passes other scripts' digits; no size fits a cap of 0
        if kind not in DEFAULT_LIMITS or not (value.isascii() and value.isdigit() and int(value)):
            raise LimitExceeded(f"bad limit spec {spec!r}; use KIND=N")
        overrides[kind] = int(value)
    return overrides


def _flag_limits(args, kind: str | None) -> dict[str, int]:
    """The ``--limit`` overrides, which may name only the kind in use."""
    flags = _parse_limit_specs(args.limit or [])
    unused = sorted(set(flags) - {kind})
    if unused:
        raise LimitExceeded(
            f"--limit names {unused[0]}, which this {args.command} run does not cap"
        )
    return flags


def _resolve_limit(args, kind: str) -> int:
    """The cap in force for ``kind``: the default unless ``--limit`` or
    ``NCL_LIMITS`` overrides it.  ``--unsafe-limits`` only confirms an
    override above the default; on its own it raises no cap."""
    # NCL_LIMITS is shell-wide, so only its entry for ``kind`` applies
    env = os.environ.get("NCL_LIMITS", "")
    overrides = _parse_limit_specs(s for s in env.split(",") if s.strip())
    overrides.update(_flag_limits(args, kind))
    if kind in overrides:
        cap = overrides[kind]
        if cap > DEFAULT_LIMITS[kind] and not args.unsafe_limits:
            raise LimitExceeded(
                f"raising the {kind} cap above {DEFAULT_LIMITS[kind]} "
                f"requires --unsafe-limits"
            )
        return cap
    return DEFAULT_LIMITS[kind]


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
    # the enumerator checks the cap before it yields, so a refusal prints nothing
    objects = _ENUMERATORS[args.kind](args.n, limit=limit)
    _print_lines(_enumeration_lines(objects, args.format))
    return 0


def _read_series(raw: str) -> dict:
    """A series object whose ``coeffs`` list is within the ``transform`` cap.

    The cap reads the list's length before any coefficient is parsed; an
    empty, missing or malformed list is left to the parser's own errors.
    """
    data = _read_data(raw)
    coeffs = data.get("coeffs")
    if isinstance(coeffs, list) and coeffs:
        check_limit("transform", len(coeffs))
    return data


def _cmd_transform(args) -> int:
    parse, transform = _TRANSFORMS[args.direction]
    out = transform(parse(_read_series(args.data)))
    _print_lines([_dump(out.to_json_dict())])
    return 0


def _cmd_biject(args) -> int:
    data = _read_data(args.data)
    if args.direction == "theta":
        out = tree_from_connected(jsonio.parse_ncl(data))
    elif args.direction == "theta-inv":
        tree = jsonio.parse_tree(data)
        if isinstance(tree, BicolorPlanarTree):
            raise NotConnected("expected a plain planar tree, got a bicolor one")
        out = connected_from_tree(tree)
    elif args.direction == "lambda":
        out = bicolor_from_ncls(jsonio.parse_ncl(data))
    else:  # lambda-inv
        tree = jsonio.parse_tree(data)
        if isinstance(tree, PlanarTree):
            if tree.size > 1:
                raise NotNclS("expected a bicolor tree (colours missing)")
            tree = BicolorPlanarTree()
        out = ncls_from_bicolor(tree)
    _print_lines([_dump(out.to_json_dict())])
    return 0


def _cmd_render(args) -> int:
    data = _read_data(args.data)
    if "blocks" in data:
        obj = jsonio.parse_ncl(data)
    elif "children" in data:
        obj = jsonio.parse_tree(data)
    else:
        raise ValueError("expected a partition or tree object")
    _print_lines([render.render(obj)])
    return 0


def _cmd_verify(args) -> int:
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
        _flag_limits(args, None)
        tx, ty = map(jsonio.parse_tcoeffs, [_read_series(args.tx), _read_series(args.ty)])
        _print_lines([_dump(t_convolve(tx, ty).to_json_dict())])
        return 0
    mx, my = map(jsonio.parse_moments, [_read_series(args.mx), _read_series(args.my)])
    order = args.order
    if order is not None and order < 1:
        raise ValueError(f"--order must be at least 1 (requested {order})")
    limit = _resolve_limit(args, "theorem")
    if order is None:
        order = min(mx.order, my.order, limit)
    report = verify_t_multiplicativity(mx, my, order, limit=limit)
    _print_lines([json.dumps(report.to_json_dict(), sort_keys=True, indent=2)])
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noncrossing",
        description="Exact non-crossing partition combinatorics and transforms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def limit_flags(p):
        p.add_argument(
            "--limit",
            action="append",
            metavar="KIND=N",
            help="override an enumeration cap (may repeat)",
        )
        p.add_argument(
            "--unsafe-limits",
            action="store_true",
            help="allow caps above the defaults",
        )

    p = sub.add_parser("enumerate", help="list a combinatorial family")
    p.add_argument("kind", choices=sorted(_ENUMERATORS))
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=["json", "text"], default="json")
    limit_flags(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("transform", help="convert between coefficient sequences")
    p.add_argument("direction", choices=list(_TRANSFORMS))
    p.add_argument("data", help="series JSON, or - for stdin")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("biject", help="apply a tree bijection")
    p.add_argument("direction", choices=["theta", "theta-inv", "lambda", "lambda-inv"])
    p.add_argument("data", help="object JSON, or - for stdin")
    p.set_defaults(func=_cmd_biject)

    p = sub.add_parser("render", help="draw a partition or tree as ASCII")
    p.add_argument("data", help="object JSON, or - for stdin")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("verify", help="run identity suites")
    p.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("convolve", help="multiply t-series or verify multiplicativity")
    p.add_argument("--tx", help="first t-coefficient series JSON")
    p.add_argument("--ty", help="second t-coefficient series JSON")
    p.add_argument("--mx", help="first moment series JSON")
    p.add_argument("--my", help="second moment series JSON")
    p.add_argument("--order", type=int, default=None)
    limit_flags(p)
    p.set_defaults(func=_cmd_convolve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ZeroFirstMoment, ZeroT0) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonCrossingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the JSON codec and jsonio's tree parse recurse once per level; the
        # decoder's own limit bounds the depth of every input tree
        print("error: the input or result is nested too deeply for JSON", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
