"""JSON schemas for partitions, trees, series, and scenarios.

Rationals travel as strings ("3/4", "-2") so no precision is lost in
a number type.  Producers emit canonical block order; parsers accept
blocks in any order.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain

from .freeness import Scenario
from .partitions import NCLPartition, NCPartition, validate_nc, validate_ncl
from .transforms import (
    CumulantSequence,
    MomentSequence,
    TCoeffSequence,
)
from .trees import BicolorPlanarTree, PlanarTree


def parse_fraction(text) -> Fraction:
    """A string holding an integer, ``a/b`` or a plain decimal, or a JSON
    number; other values are refused by type alone.  Exponent strings are
    refused: ``Fraction`` would expand "1e3000000" into digits before any cap
    applies, while a JSON number is already bounded by the decoder."""
    if type(text) not in (str, int, float):
        raise ValueError(f"a coefficient is a string or a number, not {type(text).__name__}")
    if isinstance(text, str) and ("e" in text or "E" in text):
        raise ValueError(f"{text!r} is not an integer, a/b or a plain decimal")
    try:
        return Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _require(data: dict, key: str):
    if key not in data:
        raise ValueError(f"missing key {key!r}")
    return data[key]


def _require_list(data: dict, key: str) -> list:
    value = _require(data, key)
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a list")
    return value


def _require_int(data: dict, key: str) -> int:
    """A JSON integer: no float, bool or string is rounded or converted."""
    value = _require(data, key)
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, not {type(value).__name__}")
    return value


def _blocks(data: dict) -> list:
    # checked in bulk; only a failure looks for the first offender to name
    blocks = _require_list(data, "blocks")
    if set(map(type, blocks)) <= {list} and set(map(type, chain.from_iterable(blocks))) <= {int}:
        return blocks
    for blk in blocks:
        if not isinstance(blk, list) or not all(type(e) is int for e in blk):
            raise ValueError(f"block {json.dumps(blk)} is not a list of integers")
    return blocks


def parse_nc(data: dict) -> NCPartition:
    return validate_nc(_require_int(data, "n"), _blocks(data))


def parse_ncl(data: dict) -> NCLPartition:
    return validate_ncl(_require_int(data, "n"), _blocks(data))


def parse_tree(data: dict) -> PlanarTree | BicolorPlanarTree:
    """Parse a tree; entries with a ``color`` key yield a bicolor tree."""
    return _parse_bicolor(data) if _uses_colors(data) else _parse_plain(data)


def _entries(data: dict) -> list[dict]:
    """The child entries of a tree object, each an object with a ``tree``
    object."""
    entries = data.get("children", [])
    if not isinstance(entries, list):
        raise ValueError("'children' must be a list")
    for entry in entries:
        if not isinstance(entry, dict) or not isinstance(_require(entry, "tree"), dict):
            raise ValueError("a child entry must be an object with a 'tree' object")
    return entries


def _uses_colors(data: dict) -> bool:
    return any("color" in e or _uses_colors(e["tree"]) for e in _entries(data))


def _parse_plain(data: dict) -> PlanarTree:
    return PlanarTree(tuple(_parse_plain(e["tree"]) for e in _entries(data)))


def _parse_bicolor(data: dict) -> BicolorPlanarTree:
    return BicolorPlanarTree(tuple(
        (_require_int(e, "color"), _parse_bicolor(e["tree"]))
        for e in _entries(data)
    ))


def _parse_coeffs(data: dict) -> tuple[Fraction, ...]:
    coeffs = tuple(parse_fraction(c) for c in _require_list(data, "coeffs"))
    declared = data.get("order")
    if declared is not None and _require_int(data, "order") != len(coeffs):
        raise ValueError(f"order {declared} does not match {len(coeffs)} coefficients")
    return coeffs


def parse_moments(data: dict) -> MomentSequence:
    return MomentSequence(_parse_coeffs(data))


def parse_cumulants(data: dict) -> CumulantSequence:
    return CumulantSequence(_parse_coeffs(data))


def parse_tcoeffs(data: dict) -> TCoeffSequence:
    return TCoeffSequence(_parse_coeffs(data))


def parse_scenario(data: dict) -> Scenario:
    specs = _require(data, "algebras")
    if not isinstance(specs, dict):
        raise ValueError("'algebras' must be an object")
    algebras = {}
    for name, spec in specs.items():
        if not isinstance(spec, dict):
            raise ValueError(f"algebra {name!r} must be an object")
        algebras[name] = CumulantSequence(
            tuple(parse_fraction(c) for c in _require_list(spec, "cumulants"))
        )
    return Scenario(algebras)
