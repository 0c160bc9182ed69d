"""JSON schemas for partitions, trees, series, and scenarios.

Rationals travel as strings ("3/4", "-2") so no precision is lost in
a number type.  Producers emit canonical block order; parsers accept
blocks in any order.  The partition, tree and scenario modules are
imported by the parsers that return their types, so parsing a series
loads none of them.  The series parsers check the ``transform`` cap
against the length of the ``coeffs`` list before parsing any coefficient.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain

from .errors import shorten
from .limits import check_limit, rational, too_many_digits
from .transforms import (
    CumulantSequence,
    MomentSequence,
    TCoeffSequence,
)


def read_object(text: str) -> dict:
    """The JSON object that ``text`` holds; any other JSON value is refused."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # the decoder's int() refuses an integer over the digit limit
        raise too_many_digits("an input integer") from None
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    return data


def read_series(text: str) -> dict:
    """The object in ``text``, once its ``coeffs`` list is within the
    ``transform`` cap; so a caller can check every series it takes before
    it parses any."""
    return _capped(read_object(text))


def parse_fraction(text) -> Fraction:
    """A JSON string or integer as :func:`limits.rational` reads it ("-2",
    "3/4", "0.125", 5), or a JSON float by its decimal text; other values are
    refused by type alone.  A JSON number is already bounded by the decoder.
    """
    kind = type(text)
    if kind is str or kind is int:
        return rational(text)
    if kind is float:
        return Fraction(str(text))
    raise ValueError(f"a coefficient is a string or a number, not {kind.__name__}")


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
            raise ValueError(f"block {shorten(json.dumps(blk))} is not a list of integers")
    return blocks


def parse_nc(data: dict) -> NCPartition:
    from .partitions import validate_nc

    return validate_nc(_require_int(data, "n"), _blocks(data))


def parse_ncl(data: dict) -> NCLPartition:
    from .partitions import validate_ncl

    return validate_ncl(_require_int(data, "n"), _blocks(data))


def parse_tree(data: dict) -> PlanarTree | BicolorPlanarTree:
    """Parse a tree; entries with a ``color`` key yield a bicolor tree."""
    from .trees import BicolorPlanarTree, PlanarTree

    if _uses_colors(data):
        return _parse_bicolor(data, BicolorPlanarTree)
    return _parse_plain(data, PlanarTree)


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


# each recursion takes the tree class from parse_tree, which imports it once
def _parse_plain(data: dict, tree: type) -> PlanarTree:
    return tree(tuple(_parse_plain(e["tree"], tree) for e in _entries(data)))


def _parse_bicolor(data: dict, tree: type) -> BicolorPlanarTree:
    return tree(tuple(
        (_require_int(e, "color"), _parse_bicolor(e["tree"], tree))
        for e in _entries(data)
    ))


def _capped(data: dict) -> dict:
    """``data``, once a nonempty ``coeffs`` list is within the ``transform``
    cap; an empty, missing or malformed one is left to the parser's errors."""
    coeffs = data.get("coeffs")
    if isinstance(coeffs, list) and coeffs:
        check_limit("transform", len(coeffs))
    return data


def _parse_coeffs(data: dict) -> tuple[Fraction, ...]:
    coeffs = tuple(parse_fraction(c) for c in _require_list(_capped(data), "coeffs"))
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
    from .freeness import Scenario

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
