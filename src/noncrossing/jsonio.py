"""JSON schemas for partitions, trees, series, and scenarios.

Rationals travel as strings ("3/4", "-2") so no precision is lost in
a number type.  Producers emit canonical block order; parsers accept
blocks in any order.
"""

from __future__ import annotations

from fractions import Fraction

from .freeness import Scenario
from .partitions import NCLPartition, NCPartition, validate_nc, validate_ncl
from .transforms import (
    CumulantSequence,
    MomentSequence,
    TCoeffSequence,
)
from .trees import BicolorPlanarTree, PlanarTree


def parse_fraction(text) -> Fraction:
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


def parse_nc(data: dict) -> NCPartition:
    return validate_nc(int(_require(data, "n")), _require_list(data, "blocks"))


def parse_ncl(data: dict) -> NCLPartition:
    return validate_ncl(int(_require(data, "n")), _require_list(data, "blocks"))


def parse_tree(data: dict) -> PlanarTree | BicolorPlanarTree:
    """Parse a tree; entries with a ``color`` key yield a bicolor tree."""
    entries = data.get("children", [])
    if _uses_colors(data):
        return _parse_bicolor(data)
    children = tuple(_parse_plain(e["tree"]) for e in entries)
    return PlanarTree(children)


def _uses_colors(data: dict) -> bool:
    for entry in data.get("children", []):
        if "color" in entry or _uses_colors(entry.get("tree", {})):
            return True
    return False


def _parse_plain(data: dict) -> PlanarTree:
    return PlanarTree(tuple(_parse_plain(e["tree"]) for e in data.get("children", [])))


def _parse_bicolor(data: dict) -> BicolorPlanarTree:
    children = []
    for entry in data.get("children", []):
        children.append((int(_require(entry, "color")), _parse_bicolor(entry["tree"])))
    return BicolorPlanarTree(tuple(children))


def _parse_coeffs(data: dict) -> tuple[Fraction, ...]:
    coeffs = tuple(parse_fraction(c) for c in _require_list(data, "coeffs"))
    declared = data.get("order")
    if declared is not None and int(declared) != len(coeffs):
        raise ValueError(f"order {declared} does not match {len(coeffs)} coefficients")
    return coeffs


def parse_moments(data: dict) -> MomentSequence:
    return MomentSequence(_parse_coeffs(data))


def parse_cumulants(data: dict) -> CumulantSequence:
    return CumulantSequence(_parse_coeffs(data))


def parse_tcoeffs(data: dict) -> TCoeffSequence:
    return TCoeffSequence(_parse_coeffs(data))


def parse_scenario(data: dict) -> Scenario:
    algebras = {}
    for name, spec in _require(data, "algebras").items():
        algebras[name] = CumulantSequence(
            tuple(parse_fraction(c) for c in _require(spec, "cumulants"))
        )
    return Scenario(algebras)


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "algebras": {
            name: {"cumulants": [str(v) for v in seq.values]}
            for name, seq in sorted(scenario.algebras.items())
        }
    }
