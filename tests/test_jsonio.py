import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncrossing import jsonio
from noncrossing.partitions import enumerate_ncl, validate_ncl
from noncrossing.transforms import (
    CumulantSequence,
    MomentSequence,
    TCoeffSequence,
)
from noncrossing.trees import (
    BicolorPlanarTree,
    PlanarTree,
    enumerate_bicolor,
    enumerate_planar_trees,
)


@pytest.mark.parametrize("text", ["1e5", "1E5", "2.5e-3", "1e3000000"])
def test_parse_fraction_refuses_exponents(text):
    with pytest.raises(ValueError, match="is not an integer, a/b or a plain decimal"):
        jsonio.parse_fraction(text)


@pytest.mark.parametrize("value, name", [([[1]], "list"), ({"a": 1}, "dict"),
                                         (True, "bool"), (None, "NoneType")])
def test_parse_fraction_names_only_the_type(value, name):
    with pytest.raises(ValueError) as info:
        jsonio.parse_fraction(value)
    assert str(info.value) == f"a coefficient is a string or a number, not {name}"


@pytest.mark.parametrize("text, value", [("-7", -7), ("3/4", 0.75), ("0.125", 0.125), (2, 2), (1e-05, Fraction(1, 100000))])
def test_parse_fraction_forms(text, value):
    assert jsonio.parse_fraction(text) == value


def test_partition_roundtrip_fixture():
    pi = validate_ncl(12, [[1, 4, 6, 9], [2, 3], [4, 5], [6, 7, 8], [10, 11], [11, 12]])
    data = pi.to_json_dict()
    assert data == {
        "n": 12,
        "blocks": [[1, 4, 6, 9], [2, 3], [4, 5], [6, 7, 8], [10, 11], [11, 12]],
    }
    assert jsonio.parse_ncl(json.loads(json.dumps(data))) == pi


def test_partition_parse_tolerates_any_block_order():
    data = {"n": 3, "blocks": [[3], [2, 1]]}
    assert jsonio.parse_nc(data).blocks == ((1, 2), (3,))


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_partition_json_roundtrip(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    pi = data.draw(st.sampled_from(enumerate_ncl(n)))
    assert jsonio.parse_ncl(pi.to_json_dict()) == pi


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_tree_json_roundtrip(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    tree = data.draw(st.sampled_from(enumerate_planar_trees(n)))
    parsed = jsonio.parse_tree(tree.to_json_dict())
    assert isinstance(parsed, PlanarTree)
    assert parsed == tree


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_bicolor_json_roundtrip(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    tree = data.draw(st.sampled_from(enumerate_bicolor(n)))
    parsed = jsonio.parse_tree(tree.to_json_dict())
    assert isinstance(parsed, BicolorPlanarTree)
    assert parsed == tree


def test_series_roundtrip():
    m = MomentSequence(("1", "-2/3", "5"))
    data = m.to_json_dict()
    assert data == {"order": 3, "coeffs": ["1", "-2/3", "5"]}
    assert jsonio.parse_moments(data) == m
    t = TCoeffSequence(("1/2", "0", "7"))
    assert jsonio.parse_tcoeffs(t.to_json_dict()) == t
    k = CumulantSequence(("0", "1"))
    assert jsonio.parse_cumulants(k.to_json_dict()) == k


def test_series_order_mismatch_rejected():
    with pytest.raises(ValueError):
        jsonio.parse_moments({"order": 4, "coeffs": ["1", "2"]})


def test_scenario_roundtrip():
    data = {
        "algebras": {
            "X": {"cumulants": ["1", "1", "1"]},
            "Y": {"cumulants": ["2", "1/2", "0"]},
        }
    }
    parsed = jsonio.parse_scenario(data)
    assert parsed.algebras == {
        "X": CumulantSequence((1, 1, 1)), "Y": CumulantSequence((2, Fraction(1, 2), 0))
    }


@pytest.mark.parametrize("data, message", [
    ({"algebras": {"X": {"cumulants": "123"}}}, "'cumulants' must be a list"),
    ({"algebras": [["X", {"cumulants": ["1"]}]]}, "'algebras' must be an object"),
    ({"algebras": {"X": ["1", "2"]}}, "algebra 'X' must be an object"),
])
def test_malformed_scenario_rejected(data, message):
    with pytest.raises(ValueError, match=message):
        jsonio.parse_scenario(data)


def test_missing_keys_rejected():
    with pytest.raises(ValueError):
        jsonio.parse_ncl({"blocks": [[1]]})
    with pytest.raises(ValueError):
        jsonio.parse_moments({"order": 2})
