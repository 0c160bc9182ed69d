import copy
import gc
import hashlib
import json
import pickle
import random
import time
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction as F
from functools import cache
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncrossing.errors import (
    LimitExceeded,
    NotNclS,
    OrderTooLow,
    SizeMismatch,
    ZeroFirstMoment,
    ZeroT0,
)
from noncrossing import cli, transforms
from noncrossing.freeness import Letter
from noncrossing.partitions import enumerate_nc, enumerate_ncl, enumerate_ncls, kreweras
from noncrossing.transforms import (
    CumulantSequence,
    MomentSequence,
    TCoeffSequence,
    cumulant_via_classes,
    cumulant_via_trees,
    cumulants_to_moments,
    eval_bicolor,
    eval_tree,
    free_additive,
    free_multiplicative,
    moments_to_cumulants,
    moments_to_tcoeffs,
    ncls_weight,
    t_convolve,
    tcoeffs_to_moments,
    verify_t_multiplicativity,
)
from noncrossing.transforms import _bicolor_profile, _evaluate, _power_row, _profile
from noncrossing.trees import (
    PlanarTree,
    bicolor_from_ncls,
    enumerate_bicolor,
    enumerate_bicolor_elementary,
    enumerate_planar_trees,
)
from noncrossing.verify import (
    _cumulant_polynomials,
    _theorem_identities,
    _unpacked,
    catalan_moments,
    seeded_moment_corpus,
    shifted_catalan_moments,
)

from harness import run_cli
from laws import LAWS, POWERS, free_poisson, poisson_power
from oracles import (
    bicolor_sum,
    bicolor_weight_by_profile,
    cauchy_product_by_fractions,
    class_sum,
    cumulant_solve_by_fractions,
    kreweras_sum,
    moment_by_linked_sum,
    moment_by_nc_sum,
    ncls_weight_by_profile,
    power_row_by_fractions,
    tcoeff_solve_by_fractions,
    tree_sum,
    tree_weight_by_profile,
)

LEAF = PlanarTree()
CHAIN3 = PlanarTree((PlanarTree((LEAF,)),))
STAR3 = PlanarTree((LEAF, LEAF))


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
nonzero_rationals = rationals.filter(lambda v: v != 0)


# ---------------------------------------------------------------------------
# moment <-> cumulant


def test_free_poisson_cumulants():
    m = MomentSequence((1, 2, 5, 14, 42))
    assert moments_to_cumulants(m).values == (1, 1, 1, 1, 1)


def test_point_mass_cumulants():
    c = F(3, 2)
    m = MomentSequence(tuple(c**n for n in range(1, 6)))
    assert moments_to_cumulants(m).values == (c, 0, 0, 0, 0)


def test_shifted_catalan_cumulants():
    m = MomentSequence((2, 5, 14, 42))
    assert moments_to_cumulants(m).values == (2, 1, 0, 0)


def test_cumulants_to_moments_inverse_of_fixtures():
    for values in [(1, 1, 1, 1, 1), (2, 1, 0, 0), (F(3, 2), 0, 0, 0, 0)]:
        k = CumulantSequence(values)
        assert moments_to_cumulants(cumulants_to_moments(k)) == k


@pytest.mark.parametrize("n", range(1, 11))
def test_cumulants_to_moments_matches_direct_sum(n):
    k = CumulantSequence(tuple(F(i + 2, i + 1) for i in range(n)))
    m = cumulants_to_moments(k)
    assert m.values[n - 1] == moment_by_nc_sum(k.values, n, enumerate_nc(n))


@given(st.lists(rationals, min_size=1, max_size=20))
@settings(max_examples=80, deadline=None)
def test_moment_cumulant_roundtrip(values):
    m = MomentSequence(tuple(values))
    assert cumulants_to_moments(moments_to_cumulants(m)) == m


# ---------------------------------------------------------------------------
# moment <-> t-coefficient


def test_free_poisson_tcoeffs():
    m = MomentSequence((1, 2, 5, 14, 42))
    assert moments_to_tcoeffs(m).values == (1, 1, 0, 0, 0)


def test_unit_element_tcoeffs():
    m = MomentSequence((1, 1, 1, 1))
    assert moments_to_tcoeffs(m).values == (1, 0, 0, 0)


def test_shifted_catalan_tcoeffs():
    m = MomentSequence((2, 5, 14, 42))
    assert moments_to_tcoeffs(m).values[:3] == (2, F(1, 2), F(-1, 8))


def test_zero_first_moment_rejected():
    with pytest.raises(ZeroFirstMoment):
        moments_to_tcoeffs(MomentSequence((0, 1, 0, 2)))


def test_zero_t0_rejected():
    with pytest.raises(ZeroT0):
        TCoeffSequence((0, 1))


@pytest.mark.parametrize("n", range(1, 10))
def test_tcoeffs_to_moments_matches_direct_sum(n):
    t = TCoeffSequence(tuple(F(2 * i + 1, i + 2) for i in range(n)))
    m = tcoeffs_to_moments(t)
    assert m.values[n - 1] == moment_by_linked_sum(t.values, n, enumerate_ncl(n))


@given(st.lists(rationals, min_size=1, max_size=20), nonzero_rationals)
@settings(max_examples=80, deadline=None)
def test_moment_tcoeff_roundtrip(tail, head):
    m = MomentSequence((head, *tail))
    t = moments_to_tcoeffs(m)
    assert tcoeffs_to_moments(t) == m
    assert moments_to_tcoeffs(tcoeffs_to_moments(t)) == t


def test_corpus_roundtrips():
    for m in seeded_moment_corpus(20240801, 200, 8):
        assert cumulants_to_moments(moments_to_cumulants(m)) == m
        assert tcoeffs_to_moments(moments_to_tcoeffs(m)) == m


# ---------------------------------------------------------------------------
# closed-form laws at order 60 (tests/laws.py): a wrong equation would still
# round-trip, but would miss these values

# direction -> (function, index of its input in a law, index of its output)
DIRECTIONS = {
    "m2k": (moments_to_cumulants, 0, 1),
    "k2m": (cumulants_to_moments, 1, 0),
    "m2t": (moments_to_tcoeffs, 0, 2),
    "t2m": (tcoeffs_to_moments, 2, 0),
}

# every law and direction whose two sides have a closed form
LAW_CASES = [(law, direction) for law, sides in LAWS.items()
             for direction, (_, given, wanted) in DIRECTIONS.items()
             if sides[given] is not None and sides[wanted] is not None]


@pytest.mark.parametrize("law, direction", LAW_CASES, ids=["-".join(case) for case in LAW_CASES])
def test_transforms_give_closed_form_laws_at_order_60(law, direction):
    function, given, wanted = DIRECTIONS[direction]
    sequence = (MomentSequence, CumulantSequence, TCoeffSequence)[given](LAWS[law][given])
    assert function(sequence).values == tuple(LAWS[law][wanted])


@pytest.mark.parametrize("law", LAWS)
def test_cli_m2t_prints_closed_form_laws(law):
    moments, _, tcoeffs = LAWS[law]
    proc = run_cli("transform", "m2t", json.dumps({"coeffs": [str(v) for v in moments]}))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"coeffs": [str(F(v)) for v in tcoeffs], "order": 60}


@pytest.mark.parametrize("rates", [(F(2, 3), F(1, 2)), (F(1, 5), F(3))])
def test_free_additive_adds_free_poisson_rates(rates):
    jump = F(5, 4)
    kx, ky = (moments_to_cumulants(MomentSequence(free_poisson(rate, jump)[0])) for rate in rates)
    assert cumulants_to_moments(free_additive(kx, ky)).values == \
        tuple(free_poisson(sum(rates), jump)[0])


@pytest.mark.parametrize("r, s", combinations_with_replacement(POWERS, 2), ids=str)
def test_t_convolve_adds_poisson_power_exponents(r, s):
    # C(r, j) * C(s, j) summed as a Cauchy product is C(r + s, j) (Vandermonde)
    tx, ty = (TCoeffSequence(poisson_power(p)[2]) for p in (r, s))
    assert tcoeffs_to_moments(t_convolve(tx, ty)).values == tuple(poisson_power(r + s)[0])


# ---------------------------------------------------------------------------
# the sequence contract: reduced pairs inside, Fractions when read


KINDS = [(MomentSequence, "moment"), (CumulantSequence, "cumulant"),
         (TCoeffSequence, "t-coefficient")]


def _solved():
    """One output of each solve and of t_convolve, with zeros and negatives."""
    m = MomentSequence((F(1, 2), F(-3, 4), 2, 0, F(5, 7)))
    t = TCoeffSequence((1, F(1, 3), -2, 0, F(-9, 10)))
    return [moments_to_cumulants(m), cumulants_to_moments(CumulantSequence(m.values)),
            moments_to_tcoeffs(m), tcoeffs_to_moments(t), t_convolve(t, t)]


def test_sequences_equal_and_hash_by_kind_and_value():
    values = (F(1), F(1, 2), F(-3))
    m = MomentSequence(values)
    assert m == MomentSequence((1, "1/2", F(-6, 2)))
    assert hash(m) == hash(MomentSequence((1, "1/2", -3))) == hash((values,))
    others = [cls(values) for cls, _ in KINDS[1:]]
    assert all(m != o and o != m for o in others)
    assert others[0] != others[1]
    assert len({m, *others}) == 3
    assert m != values and m.__eq__(values) is NotImplemented
    # a solved sequence holds only pairs until read, and still compares by value
    k = moments_to_cumulants(MomentSequence((1, 2, 5)))
    assert k == CumulantSequence((1, 1, 1)) and hash(k) == hash(CumulantSequence((1, 1, 1)))
    assert k != MomentSequence((1, 1, 1))


@pytest.mark.parametrize("name", ["values", "pairs", "order", "kind", "other"])
def test_sequences_refuse_assignment(name):
    for seq in [MomentSequence((1, 2))] + _solved():
        with pytest.raises(FrozenInstanceError):
            setattr(seq, name, ())
        with pytest.raises(FrozenInstanceError):
            delattr(seq, name)


def test_sequence_repr_is_the_dataclass_repr():
    assert repr(MomentSequence((1, F(-1, 2)))) == \
        "MomentSequence(values=(Fraction(1, 1), Fraction(-1, 2)))"
    assert repr(moments_to_tcoeffs(MomentSequence((2, 3)))) == \
        "TCoeffSequence(values=(Fraction(2, 1), Fraction(-1, 2)))"


def test_sequences_copy_and_pickle_by_value():
    for seq in _solved():
        for twin in (copy.copy(seq), copy.deepcopy(seq), pickle.loads(pickle.dumps(seq))):
            assert twin == seq and type(twin) is type(seq)


def test_to_json_dict_formats_pairs_as_fractions():
    values = (F(0), F(7), F(-4), F(1, 3), F(-7, 2), F(10**30 + 1, 7))
    for cls, _ in KINDS:
        seq = cls(values[1:]) if cls is TCoeffSequence else cls(values)
        assert seq.to_json_dict() == {"order": seq.order,
                                      "coeffs": [str(v) for v in seq.values]}
    for seq in _solved():
        coeffs = seq.to_json_dict()["coeffs"]
        assert coeffs == [str(F(p, q)) for p, q in seq.pairs]
    assert moments_to_tcoeffs(MomentSequence((-1, 2, -5, 14))).to_json_dict() == \
        {"order": 4, "coeffs": ["-1", "-1", "0", "0"]}


@pytest.mark.parametrize("cls, kind", KINDS)
def test_empty_sequence_is_too_low(cls, kind):
    with pytest.raises(OrderTooLow) as exc:
        cls(())
    assert str(exc.value) == f"a {kind} sequence needs at least one entry"


@pytest.mark.parametrize("values", [(0, 1), (F(0), F(1, 2)), ("0",)])
def test_zero_t0_message(values):
    with pytest.raises(ZeroT0) as exc:
        TCoeffSequence(values)
    assert str(exc.value) == "the constant t-coefficient must be nonzero"


def test_values_are_the_reduced_pairs_as_fractions():
    given = F(1, 3)
    seq = MomentSequence((given, 4, "-6/8"))
    assert seq.values[0] is given  # a Fraction input is not built again
    assert seq.pairs == ((1, 3), (4, 1), (-3, 4))
    for seq in [seq] + _solved():
        assert all(q > 0 and gcd(p, q) == 1 for p, q in seq.pairs)
        assert seq.values == tuple(F(p, q) for p, q in seq.pairs)
        assert all(type(v) is F for v in seq.values)
        assert seq.values is seq.values and seq.order == len(seq.pairs)


def test_solves_build_no_fraction_until_values_are_read(monkeypatch):
    m = MomentSequence((F(1, 2), F(-3, 4), 2, 0, F(5, 7)))
    kappa = CumulantSequence(m.values)
    t = TCoeffSequence((1, F(1, 3), -2, 0, F(-9, 10)))
    expected = [cumulant_solve_by_fractions(m.values, from_moments=True),
                cumulant_solve_by_fractions(m.values, from_moments=False),
                tcoeff_solve_by_fractions(m.values, from_moments=True),
                tcoeff_solve_by_fractions(t.values, from_moments=False),
                cauchy_product_by_fractions(t.values, t.values)]
    built = []

    def counting(*args):
        built.append(args)
        return F(*args)

    monkeypatch.setattr(transforms, "Fraction", counting)
    outputs = [moments_to_cumulants(m), cumulants_to_moments(kappa), moments_to_tcoeffs(m),
               tcoeffs_to_moments(t), t_convolve(t, t)]
    # chained solves pass pairs straight through
    outputs.append(tcoeffs_to_moments(moments_to_tcoeffs(
        cumulants_to_moments(moments_to_cumulants(m)))))
    expected.append(m.values)
    assert built == []
    for seq, want in zip(outputs, expected):
        assert seq.values == want
    assert len(built) == sum(seq.order for seq in outputs)


# ---------------------------------------------------------------------------
# exactness against the Fraction solve


wide_rationals = st.builds(F, st.integers(-50, 50), st.integers(1, 1000))
wide_nonzero = st.builds(F, st.integers(-50, 50).filter(bool), st.integers(1, 1000))


def _assert_exact(result, expected):
    assert result.values == expected
    assert all(type(v) is F for v in result.values)


@given(st.lists(wide_rationals, min_size=0, max_size=15), wide_nonzero)
@settings(max_examples=60, deadline=None)
def test_transforms_equal_fraction_solve(tail, head):
    values = (head, *tail)
    _assert_exact(moments_to_cumulants(MomentSequence(values)),
                  cumulant_solve_by_fractions(values, from_moments=True))
    _assert_exact(cumulants_to_moments(CumulantSequence(values)),
                  cumulant_solve_by_fractions(values, from_moments=False))
    _assert_exact(moments_to_tcoeffs(MomentSequence(values)),
                  tcoeff_solve_by_fractions(values, from_moments=True))
    _assert_exact(tcoeffs_to_moments(TCoeffSequence(values)),
                  tcoeff_solve_by_fractions(values, from_moments=False))


def _random_rationals(rng, count, max_den=4):
    # nonzero first entry, so every list is a valid t-sequence
    values = [F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, max_den))]
    values += [F(rng.randint(-5, 5), rng.randint(1, max_den)) for _ in range(count - 1)]
    return tuple(values)


@pytest.mark.parametrize("max_den", [4, 1000])
def test_order_60_roundtrips(max_den):
    rng = random.Random(60 + max_den)
    m = MomentSequence(_random_rationals(rng, 60, max_den))
    k = moments_to_cumulants(m)
    assert k.values == cumulant_solve_by_fractions(m.values, from_moments=True)
    assert cumulants_to_moments(k) == m
    t = moments_to_tcoeffs(m)
    assert t.values == tcoeff_solve_by_fractions(m.values, from_moments=True)
    assert tcoeffs_to_moments(t) == m


def _edge_inputs(order):
    """Inputs that stress the row kernel: runs of zeros, a negative first
    entry (so the t-diagonal m_1^(n-1) changes sign with n) and integers
    with common factors (so a row's gcd exceeds 1 before it is reduced)."""
    return {
        "unit-then-zeros": (1,) + (0,) * (order - 1),
        "alternating-zeros": tuple(-2 if i == 0 else 3 * (i % 2 == 0)
                                   for i in range(order)),
        "negative-first": tuple(F(-1, 2) if i == 0 else F(i % 5 - 2, i % 3 + 1)
                                for i in range(order)),
        "common-factors": tuple(6 * (i + 1) for i in range(order)),
        "negative-common-factors": tuple(-4 if i == 0 else 10 * (i % 4)
                                         for i in range(order)),
    }


@pytest.mark.parametrize("order", [1, 2, 3, 12, 13, 60])
def test_row_kernel_edge_cases_equal_fraction_solve(order):
    for name, values in _edge_inputs(order).items():
        values = tuple(F(v) for v in values)
        assert moments_to_cumulants(MomentSequence(values)).values == \
            cumulant_solve_by_fractions(values, from_moments=True), name
        assert cumulants_to_moments(CumulantSequence(values)).values == \
            cumulant_solve_by_fractions(values, from_moments=False), name
        assert moments_to_tcoeffs(MomentSequence(values)).values == \
            tcoeff_solve_by_fractions(values, from_moments=True), name
        assert tcoeffs_to_moments(TCoeffSequence(values)).values == \
            tcoeff_solve_by_fractions(values, from_moments=False), name


def test_power_rows_are_in_lowest_terms():
    # the integer sizes of the kernel rest on every row being reduced as a
    # whole; each row must also equal the Fraction table row
    rng = random.Random(30)
    inputs = [_random_rationals(rng, 30, 1000), _random_rationals(rng, 30, 4),
              tuple(F(v) for v in _edge_inputs(30)["common-factors"])]
    for values in inputs:
        # the t-solve's series M and the cumulant solve's z(1 + M)
        for a in (list(values), [F(1), *values]):
            rows, expected = [], []
            for _ in range(len(a) + 1):
                _power_row(rows, [(v.numerator, v.denominator) for v in a])
                power_row_by_fractions(expected, a)
            for (nums, den), row in zip(rows, expected):
                assert den > 0 and gcd(den, *nums) == 1
                assert [F(v, den) for v in nums] == row


def _pinned_series(order):
    """The series of one order that the transform pin runs: seeded inputs
    with denominators 1, up to 4 and up to 1000, then the edge inputs."""
    inputs = [_random_rationals(random.Random(100 * order + max_den), order, max_den)
              for max_den in (1, 4, 1000)]
    inputs += _edge_inputs(order).values()
    return [json.dumps({"order": order, "coeffs": [str(v) for v in values]})
            for values in inputs]


def test_transform_bytes_pinned(monkeypatch, capsys):
    # stdout, stderr and the exit code of every direction at orders that
    # cross the row kernel's edges, and of convolve --tx/--ty on the same
    # series (each with the next one), pinned across rewrites of the solves
    monkeypatch.delenv("NCL_LIMITS", raising=False)
    transcript = []
    for order in (1, 2, 9, 12, 13, 60):
        series = _pinned_series(order)
        argvs = [["transform", direction, data]
                 for data in series for direction in ("m2k", "k2m", "m2t", "t2m")]
        argvs += [["convolve", "--tx", x, "--ty", y]
                  for x, y in zip(series, series[1:] + series[:1])]
        for argv in argvs:
            code = cli.main(argv)
            captured = capsys.readouterr()
            transcript.append(f"{' '.join(argv)}\n{code}\n{captured.out}{captured.err}")
    assert len(transcript) == 6 * 8 * 5
    digest = hashlib.sha256("".join(transcript).encode()).hexdigest()
    assert digest == "c5db96b1db69a3b877572fe70dce9199310e43c28ec8dba4f0f1e57e53372a32"


# ---------------------------------------------------------------------------
# homogeneity


def test_scaling_moments_scales_tcoeffs_linearly():
    base = MomentSequence((2, 5, 14, 42))
    t = moments_to_tcoeffs(base)
    for c in (F(2), F(-1), F(1, 3)):
        scaled = MomentSequence(tuple(c**n * v for n, v in enumerate(base.values, 1)))
        ts = moments_to_tcoeffs(scaled)
        assert ts.values == tuple(c * v for v in t.values)


# ---------------------------------------------------------------------------
# evaluations


def test_eval_tree_examples():
    t = TCoeffSequence((F(1), F(1), F(0)))
    assert eval_tree(LEAF, t) == 1
    assert eval_tree(CHAIN3, t) == 1  # t1^2 t0
    assert eval_tree(STAR3, t) == 0  # t2 t0^2
    t2 = TCoeffSequence((2, 3, 5))
    assert eval_tree(CHAIN3, t2) == 9 * 2
    assert eval_tree(STAR3, t2) == 5 * 4


def test_eval_tree_order_too_low():
    with pytest.raises(OrderTooLow):
        eval_tree(STAR3, TCoeffSequence((1, 1)))


def test_tree_weights_refuse_the_other_tree_kind():
    # each weight reads the word in its own kind's layout, so the other kind
    # would give a wrong value, not an error
    from noncrossing.trees import BicolorPlanarTree

    t = TCoeffSequence((2, 3, 5))
    edge = BicolorPlanarTree(((1, BicolorPlanarTree()),))
    with pytest.raises(TypeError, match="^eval_tree takes a PlanarTree, not BicolorPlanarTree$"):
        eval_tree(edge, t)
    with pytest.raises(TypeError,
                       match="^eval_bicolor takes a BicolorPlanarTree, not PlanarTree$"):
        eval_bicolor(STAR3, t, t)


@pytest.mark.parametrize("cls", [MomentSequence, CumulantSequence, TCoeffSequence])
def test_sequence_strings_follow_the_coefficient_grammar(cls):
    # Fraction(str) would read "1_0" as 10 and expand the exponent into a
    # million digits; other values still go through Fraction
    assert cls(("1", "-2/3", "0.5", 4, F(1, 7))).values == (1, F(-2, 3), F(1, 2), 4, F(1, 7))
    for text in ("1_0", "1e1000000", " 1"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="is not an integer, a/b or a plain decimal$"):
            cls(("1", text))
        assert time.perf_counter() - start < 0.1


# every constructor that takes a number reads it by one rule, limits.rational
READERS = {
    "moment": lambda v: MomentSequence((v,)).values[0],
    "cumulant": lambda v: CumulantSequence((v,)).values[0],
    "t-coefficient": lambda v: TCoeffSequence((1, v)).values[1],
    "letter": lambda v: Letter("X", v).scale,
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("value, expected", [
    ("3/4", F(3, 4)), ("-2", F(-2)), ("0.125", F(1, 8)), (F(1, 3), F(1, 3)), (5, F(5)),
    (0.5, F(1, 2)), (0.1, F(1, 10)), (1e-05, F(1, 100000)), (Decimal("0.1"), F(1, 10)),
])
def test_readers_read_a_value_alike(reader, value, expected):
    got = READERS[reader](value)
    assert type(got) is F and got == expected


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("text, message", [
    ("1e3", "'1e3' is not an integer, a/b or a plain decimal"),
    ("1_0", "'1_0' is not an integer, a/b or a plain decimal"),
    ("\uff11", "'\uff11' is not an integer, a/b or a plain decimal"),
    ("1/0", "zero denominator in '1/0'"),
    (float("inf"), "inf is not a finite number"),
    (float("-inf"), "-inf is not a finite number"),
    (float("nan"), "nan is not a finite number"),
    (Decimal("Infinity"), "Infinity is not a finite number"),
    (Decimal("-Infinity"), "-Infinity is not a finite number"),
    (Decimal("NaN"), "NaN is not a finite number"),
    (Decimal("sNaN"), "sNaN is not a finite number"),
])
def test_readers_refuse_a_value_alike(reader, text, message):
    with pytest.raises(ValueError) as info:
        READERS[reader](text)
    assert type(info.value) is ValueError and str(info.value) == message


def test_cumulant_via_classes_examples():
    assert cumulant_via_classes(TCoeffSequence((1, 1, 0)), 3) == 1
    assert cumulant_via_classes(TCoeffSequence((5,)), 1) == 5
    assert cumulant_via_classes(TCoeffSequence((2, F(1, 2), F(-1, 8))), 3) == 0


@pytest.mark.parametrize("cumulant, message", [
    (lambda n: cumulant_via_classes(TCoeffSequence((1,)), n), "trees"),
    (lambda n: cumulant_via_trees(TCoeffSequence((1,)), n), "trees"),
    (lambda n: free_multiplicative(CumulantSequence((1,)), CumulantSequence((1,)), n), "nc"),
], ids=["classes", "trees", "free-multiplicative"])
def test_cumulant_sums_refuse_n_below_one_alike(cumulant, message):
    # the size check of the cap, before any enumeration
    with pytest.raises(ValueError) as err:
        cumulant(0)
    assert str(err.value) == f"{message} needs a size of at least 1 (requested 0)"


def test_cumulant_via_trees_examples():
    assert cumulant_via_trees(TCoeffSequence((1, 1)), 2) == 1
    assert cumulant_via_trees(TCoeffSequence((1, 1, 0)), 3) == 1
    assert cumulant_via_trees(TCoeffSequence((7,)), 1) == 7


@pytest.mark.parametrize("n", range(1, 8))
def test_cumulant_routes_agree_on_corpus(n):
    for m in seeded_moment_corpus(97, 30, 7):
        kappa = moments_to_cumulants(m).values[n - 1]
        t = moments_to_tcoeffs(m)
        assert cumulant_via_classes(t, n) == kappa
        assert cumulant_via_trees(t, n) == kappa


# two draws with small denominators, one with denominators up to 1000
PROFILE_DENOMINATORS = (4, 4, 1000)


@pytest.mark.parametrize("n", range(1, 11))
def test_class_and_tree_kernels_equal_per_object_sums(n):
    rng = random.Random(1000 + n)
    for max_den in PROFILE_DENOMINATORS:
        t = TCoeffSequence(_random_rationals(rng, n, max_den))
        assert cumulant_via_classes(t, n) == class_sum(t.values, n)
        assert cumulant_via_trees(t, n) == tree_sum(t.values, n)


@pytest.mark.parametrize("n", range(1, 11))
def test_cumulant_polynomials_evaluate_to_the_numeric_solves(n):
    # verify's prop21 and eq5 compare the profiles with these polynomials, so
    # they must be the numeric kernel's cumulants at every t
    rng = random.Random(3000 + n)
    polynomial = _unpacked(_cumulant_polynomials(10)[n - 1], 10)
    for max_den in PROFILE_DENOMINATORS:
        t = TCoeffSequence(_random_rationals(rng, n, max_den))
        kappa = moments_to_cumulants(tcoeffs_to_moments(t)).values[n - 1]
        assert _evaluate(polynomial, t) == kappa


def test_theorem_polynomials_evaluate_to_the_numeric_routes():
    # verify's theorem proves its identities on these polynomials in Z[tx, ty],
    # so at rational tx, ty both sides must be the product's cumulant by the
    # Kreweras sum and by the t-series product, or the elementary tree's weight
    rng = random.Random(4000)
    identities = list(_theorem_identities(6))
    for max_den in PROFILE_DENOMINATORS:
        tx = TCoeffSequence(_random_rationals(rng, 6, max_den))
        ty = TCoeffSequence(_random_rationals(rng, 6, max_den))
        both = TCoeffSequence(tx.values + ty.values)  # ty_i sits in field 6 + i
        kx, ky = (moments_to_cumulants(tcoeffs_to_moments(t)) for t in (tx, ty))
        txy = t_convolve(tx, ty)
        kxy = moments_to_cumulants(tcoeffs_to_moments(txy))
        for identity, n, series, total in identities:
            if identity == "one-level evaluation identity":
                wanted = [eval_tree(PlanarTree((PlanarTree(),) * (n - 1)), txy)]
            else:
                wanted = [free_multiplicative(kx, ky, n), kxy.values[n - 1]]
            for side in (series, total):
                assert [_evaluate(_unpacked(side, 6), both)] * len(wanted) == wanted


@pytest.mark.parametrize("n", range(1, 8))
def test_bicolor_kernel_equals_per_object_sums(n):
    rng = random.Random(2000 + n)
    for max_den in PROFILE_DENOMINATORS:
        tx = TCoeffSequence(_random_rationals(rng, n, max_den))
        ty = TCoeffSequence(_random_rationals(rng, n, max_den))
        for elementary, trees in ((False, enumerate_bicolor(n)),
                                  (True, enumerate_bicolor_elementary(n))):
            assert _evaluate(_bicolor_profile(n, elementary), tx, ty) == bicolor_sum(
                trees, tx.values, ty.values)


def _outcome(weigh, *args):
    try:
        return weigh(*args)
    except OrderTooLow as err:
        return str(err)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_object_weights_equal_the_profile_route(seed):
    # eval_tree, eval_bicolor and ncls_weight multiply the indices out
    # directly; the one-object profile route is the oracle, on values with
    # zeros and negatives
    rng = random.Random(4000 + seed)
    drawn = []
    for _ in range(3):
        values = list(_random_rationals(rng, 8))
        values[rng.randint(1, 7)] = 0  # one zero past t_0 in each
        drawn.append(TCoeffSequence(tuple(values)))
    t, tx, ty = drawn
    assert min(t.values + tx.values + ty.values) < 0
    for n in range(1, 9):
        for tree in enumerate_planar_trees(n):
            assert eval_tree(tree, t) == tree_weight_by_profile(tree, t)
    for n in range(1, 6):
        for tree in enumerate_bicolor(n):
            assert eval_bicolor(tree, tx, ty) == bicolor_weight_by_profile(tree, tx, ty)
    for n in range(1, 5):
        for pi in enumerate_ncls(n):
            assert ncls_weight(pi, tx, ty) == ncls_weight_by_profile(pi, tx, ty)


def test_one_object_weights_name_the_same_missing_index():
    # sequences too short for some objects: the same value or the same
    # OrderTooLow message, naming the smallest index out of range
    rng = random.Random(4100)
    short = [TCoeffSequence(_random_rationals(rng, k)) for k in (1, 2, 3)]
    messages = set()
    for n in range(1, 7):
        for tree in enumerate_planar_trees(n):
            for t in short:
                got = _outcome(eval_tree, tree, t)
                assert got == _outcome(tree_weight_by_profile, tree, t)
                if isinstance(got, str):
                    messages.add(got)
    for n in range(1, 5):
        for tree in enumerate_bicolor(n):
            for tx in short:
                for ty in short:
                    assert (_outcome(eval_bicolor, tree, tx, ty)
                            == _outcome(bicolor_weight_by_profile, tree, tx, ty))
    for n in range(1, 4):
        for pi in enumerate_ncls(n):
            for tx in short:
                for ty in short:
                    assert (_outcome(ncls_weight, pi, tx, ty)
                            == _outcome(ncls_weight_by_profile, pi, tx, ty))
    assert messages == {f"need t-coefficient of index {i}" for i in range(1, 6)}


def test_profile_sum_checks_each_length_once(monkeypatch):
    # each public sum checks its sequences' orders itself, before any
    # profile is built; a profile is only its polynomial
    def refuse(*args):
        raise AssertionError("a profile was built before the order check")

    for builder in ("_class_profile", "_tree_profile", "_kreweras_profile"):
        monkeypatch.setattr(transforms, builder, refuse)
    t = TCoeffSequence((1, 1))
    short, long = CumulantSequence((1, 1, 1)), CumulantSequence((1,) * 5)
    for call, message in (
        (lambda: cumulant_via_classes(t, 5), "need t-coefficients up to index 4"),
        (lambda: cumulant_via_trees(t, 5), "need t-coefficients up to index 4"),
        (lambda: free_multiplicative(short, long, 4), "need cumulants up to order 4"),
        (lambda: free_multiplicative(long, short, 4), "need cumulants up to order 4"),
    ):
        with pytest.raises(OrderTooLow, match=f"^{message}$"):
            call()
    # STAR3 and CHAIN3 by their elementary degrees: t_0^2 t_2 and t_0 t_1^2
    profile = _profile(enumerate_planar_trees(3), PlanarTree._t_indices)
    assert type(profile) is tuple
    assert all(type(num) is int for _, num in profile)
    assert dict(profile) == {(((0, 2), (2, 1)),): 1, (((0, 1), (1, 2)),): 1}


@pytest.mark.parametrize("n", range(1, 10))
def test_kreweras_kernel_equals_per_object_sum(n):
    rng = random.Random(3000 + n)
    pairs = [(gamma, kreweras(gamma)) for gamma in enumerate_nc(n)]
    for max_den in PROFILE_DENOMINATORS:
        kx = CumulantSequence(_random_rationals(rng, n, max_den))
        ky = CumulantSequence(_random_rationals(rng, n, max_den))
        assert free_multiplicative(kx, ky, n) == kreweras_sum(pairs, kx.values, ky.values)


# ---------------------------------------------------------------------------
# free convolutions


def test_free_additive():
    a = CumulantSequence((1, 1, 1))
    b = CumulantSequence((2, 1, 0))
    assert free_additive(a, b).values == (3, 2, 1)
    zero = CumulantSequence((0, 0, 0))
    assert free_additive(a, zero) == a
    with pytest.raises(SizeMismatch):
        free_additive(a, CumulantSequence((1, 2)))


def test_free_multiplicative_small():
    kx = CumulantSequence((1, 1))
    ky = CumulantSequence((2, 1))
    assert free_multiplicative(kx, ky, 1) == 2
    assert free_multiplicative(kx, ky, 2) == 5  # 1*4 + 1*1


def test_free_multiplicative_n3_matches_direct_sum():
    kx = CumulantSequence((1, 1, 1))
    ky = CumulantSequence((2, 1, 0))
    total = F(0)
    for gamma in enumerate_nc(3):
        left = F(1)
        for blk in gamma.blocks:
            left *= kx.values[len(blk) - 1]
        right = F(1)
        for blk in kreweras(gamma).blocks:
            right *= ky.values[len(blk) - 1]
        total += left * right
    assert free_multiplicative(kx, ky, 3) == total


def test_transforms_and_convolutions_leave_no_reference_cycles(monkeypatch):
    # the solves, the Cauchy product and the Kreweras sum free or cache all
    # they allocate by reference counting, so nothing is left for the cyclic
    # collector, which the command-line process runs without
    monkeypatch.setattr(transforms, "_kreweras_profile",
                        cache(transforms._kreweras_profile.__wrapped__))
    m = seeded_moment_corpus(11, 1, 60)[0]
    gc.collect()
    gc.disable()
    try:
        kappa, t = moments_to_cumulants(m), moments_to_tcoeffs(m)
        assert cumulants_to_moments(kappa) == m == tcoeffs_to_moments(t)
        assert t_convolve(t, t).order == 60
        for n in range(1, 7):
            free_multiplicative(kappa, kappa, n)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_eval_bicolor_examples():
    from noncrossing.trees import BicolorPlanarTree

    tx = TCoeffSequence((1, 1, 5))
    ty = TCoeffSequence((3, 7, 11))
    leaf = BicolorPlanarTree()
    assert eval_bicolor(leaf, tx, ty) == 3  # t0(X) t0(Y)
    two_ones = BicolorPlanarTree(((1, leaf), (1, leaf)))
    assert eval_bicolor(two_ones, tx, ty) == 5 * 3 * (1 * 3) ** 2
    chain_11 = BicolorPlanarTree(((1, BicolorPlanarTree(((1, leaf),))),))
    assert eval_bicolor(chain_11, tx, ty) == (1 * 3) ** 2 * (1 * 3)


def test_ncls_weight_examples():
    from noncrossing.partitions import validate_ncl

    tx = TCoeffSequence((1, 1, 5))
    ty = TCoeffSequence((3, 7, 11))
    pi = validate_ncl(6, [[1, 3, 5], [2], [4], [6]])
    assert ncls_weight(pi, tx, ty) == 5 * 1 * 1 * 27  # t2(X) t0(X)^2 t0(Y)^3
    pi2 = validate_ncl(6, [[1, 3], [3, 5], [2], [4], [6]])
    assert ncls_weight(pi2, tx, ty) == 1 * 1 * 1 * 27  # t1(X)^2 t0(X) t0(Y)^3
    pi3 = validate_ncl(2, [[1], [2]])
    assert ncls_weight(pi3, tx, ty) == 3


def test_ncls_weight_refusal_quotes_a_head_of_the_partition():
    from noncrossing.partitions import validate_ncl

    singletons = validate_ncl(20000, [[e] for e in range(1, 20001)])
    t = TCoeffSequence((1, 1))
    with pytest.raises(NotNclS) as info:
        ncls_weight(singletons, t, t)
    assert str(info.value) == ("(1)(2)(3)(4)(5)(6)(7)(8)(9)(10)(11)(12)(… (128894 characters) "
                               "is not parity-split")


@pytest.mark.parametrize("n", range(1, 6))
def test_bridge_identity(n):
    corpus = seeded_moment_corpus(11, 4, max(n, 2))
    tx = moments_to_tcoeffs(corpus[0])
    ty = moments_to_tcoeffs(corpus[1])
    kx = moments_to_cumulants(corpus[0])
    ky = moments_to_cumulants(corpus[1])
    total = F(0)
    for pi in enumerate_ncls(n):
        w = ncls_weight(pi, tx, ty)
        assert w == eval_bicolor(bicolor_from_ncls(pi), tx, ty)
        total += w
    bicolor_total = sum(
        (eval_bicolor(b, tx, ty) for b in enumerate_bicolor(n)), F(0)
    )
    assert total == bicolor_total == free_multiplicative(kx, ky, n)


# ---------------------------------------------------------------------------
# series algebra and the product rule


def test_t_convolve_examples():
    tx = TCoeffSequence((1, 1, 0))
    ty = TCoeffSequence((2, F(1, 2), F(-1, 8)))
    assert t_convolve(tx, ty).values == (2, F(5, 2), F(3, 8))
    unit = TCoeffSequence((1, 0, 0))
    assert t_convolve(tx, unit) == tx
    assert t_convolve(tx, ty) == t_convolve(ty, tx)
    with pytest.raises(SizeMismatch):
        t_convolve(tx, TCoeffSequence((1, 1)))


@given(st.data(), st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_t_convolve_equals_fraction_product(data, order):
    def draw():
        tail = data.draw(st.lists(wide_rationals, min_size=order - 1, max_size=order - 1))
        return TCoeffSequence((data.draw(wide_nonzero), *tail))

    tx, ty = draw(), draw()
    _assert_exact(t_convolve(tx, ty), cauchy_product_by_fractions(tx.values, ty.values))


def test_verify_multiplicativity_fixture():
    report = verify_t_multiplicativity(catalan_moments(6), shifted_catalan_moments(6), 6)
    assert report.passed
    tx = moments_to_tcoeffs(catalan_moments(6))
    ty = moments_to_tcoeffs(shifted_catalan_moments(6))
    assert t_convolve(tx, ty).values[:3] == (2, F(5, 2), F(3, 8))


def test_verify_multiplicativity_unit_factor():
    unit = MomentSequence((1, 1, 1, 1, 1))
    mx = catalan_moments(5)
    report = verify_t_multiplicativity(mx, unit, 5)
    assert report.passed
    # multiplying by the unit leaves the t-coefficients unchanged
    tx = moments_to_tcoeffs(mx)
    assert t_convolve(tx, moments_to_tcoeffs(unit)) == tx


def test_verify_multiplicativity_same_factor():
    m = catalan_moments(5)
    assert verify_t_multiplicativity(m, m, 5).passed


def test_verify_multiplicativity_corpus():
    corpus = seeded_moment_corpus(5150, 20, 6)
    for mx, my in zip(corpus[0::2], corpus[1::2]):
        assert verify_t_multiplicativity(mx, my, 6).passed


def test_verify_multiplicativity_rejects_bad_input():
    with pytest.raises(ZeroFirstMoment):
        verify_t_multiplicativity(
            MomentSequence((0, 1, 2, 3, 4, 5)), catalan_moments(6), 6
        )
    with pytest.raises(LimitExceeded):
        verify_t_multiplicativity(catalan_moments(8), catalan_moments(8), 7)
    with pytest.raises(OrderTooLow):
        verify_t_multiplicativity(catalan_moments(3), catalan_moments(3), 5)
    with pytest.raises(ValueError, match="at least 1"):
        verify_t_multiplicativity(catalan_moments(3), catalan_moments(3), 0)
    kappa = CumulantSequence((1, 1))
    with pytest.raises(ValueError, match="at least 1"):
        free_multiplicative(kappa, kappa, 0)


def test_report_json_shape():
    report = verify_t_multiplicativity(catalan_moments(3), shifted_catalan_moments(3), 3)
    data = report.to_json_dict()
    assert data["pass"] is True
    assert data["order"] == 3
    assert all("identity" in c and "pass" in c for c in data["checks"])
