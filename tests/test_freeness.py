import json
import random
import sys
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from functools import cache
from itertools import product
from math import prod

import pytest

from noncrossing import cli, freeness
from noncrossing.errors import LetterNotInDomain, LimitExceeded, OrderTooLow
from noncrossing.freeness import (
    Letter,
    Scenario,
    VanishingReport,
    Word,
    freeness_vanishing_suite,
    mixed_cumulant,
    mixed_moment,
    mixed_tcoeff,
    product_moments,
    sum_moments,
)
from noncrossing.transforms import (
    CumulantSequence,
    cumulants_to_moments,
    free_additive,
    free_multiplicative,
    moments_to_cumulants,
    moments_to_tcoeffs,
)
from noncrossing.verify import seeded_moment_corpus

import oracles
from oracles import brute_ncl, mixed_moment_by_fractions, tcoeffs_by_fractions


@pytest.fixture
def scenario():
    return Scenario(
        {
            "X": CumulantSequence((1, 1, 1, 1, 1, 1)),
            "Y": CumulantSequence((2, 1, 0, 0, 0, 0)),
        }
    )


@pytest.fixture
def seeded_scenario():
    corpus = seeded_moment_corpus(314, 2, 6)
    return Scenario(
        {
            "A": CumulantSequence(corpus[0].values),
            "B": CumulantSequence(corpus[1].values),
        }
    )


def test_word_parse():
    w = Word.parse("X Y 2*X -1/3*Y")
    assert w.letters == (
        Letter("X"),
        Letter("Y"),
        Letter("X", 2),
        Letter("Y", F(-1, 3)),
    )
    assert str(w) == "X Y 2*X -1/3*Y"
    assert Word.parse("0.5*X").letters == (Letter("X", F(1, 2)),)


@pytest.mark.parametrize("text, token, scale", [
    ("X 1e10000000*X", "1e10000000*X", "1e10000000"),
    ("1_0*X Y", "1_0*X", "1_0"),
    ("X \u0663*Y", "\u0663*Y", "\u0663"),
])
def test_word_parse_refuses_scales_outside_the_grammar(text, token, scale):
    # Fraction would expand the exponent into ten million digits, read the
    # underscore on 3.11 only and the Arabic-Indic three as 3
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        Word.parse(text)
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == (f"letter {token!r}: {scale!r} is not an integer, a/b "
                               "or a plain decimal")


def test_letter_scale_strings_follow_the_coefficient_grammar():
    assert Letter("X", "-3/4") == Letter("X", F(-3, 4))
    assert Letter("X", 0.5).scale == F(1, 2)
    for scale in ("1e1000000", "1_0", "\u0663"):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            Letter("X", scale)
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == f"{scale!r} is not an integer, a/b or a plain decimal"
    with pytest.raises(ValueError) as info:  # a long token is quoted by its head
        Word.parse("y" * 50_000 + "*X")
    assert len(str(info.value)) <= 200


_NAME_RULE = "an algebra name is a nonempty string with no '*' or whitespace, not "


@pytest.mark.parametrize("text, token, name", [
    ("2*", "2*", "''"), ("X 2*3*X", "2*3*X", "'3*X'"), ("Y 1/2*X* X", "1/2*X*", "'X*'"),
])
def test_word_parse_refuses_letters_without_an_algebra_name(text, token, name):
    with pytest.raises(ValueError) as info:
        Word.parse(text)
    assert type(info.value) is ValueError
    assert str(info.value) == f"letter {token!r}: {_NAME_RULE}{name}"


@pytest.mark.parametrize("name", ["", "X Y", "X\tY", " X", "X\n", "3*X", "*", 3, None])
def test_letters_and_scenarios_refuse_a_name_no_word_prints(name):
    # a letter prints as one token of a word's text, which splits on
    # whitespace and reads a scale up to the first '*'
    for build in (lambda: Letter(name), lambda: Letter(name, 2),
                  lambda: Scenario({"X": CumulantSequence((1,)), name: CumulantSequence((1,))})):
        with pytest.raises(ValueError) as info:
            build()
        assert type(info.value) is ValueError
        assert str(info.value) == _NAME_RULE + repr(name) and "\n" not in str(info.value)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_words_parse_back_from_their_text(seed):
    _, words = _three_algebra_words(seed)
    for letters in words:
        word = Word(letters)
        assert Word.parse(str(word)) == word


def test_mixed_cumulant(scenario):
    assert mixed_cumulant(scenario, [Letter("X"), Letter("Y")]) == 0
    assert mixed_cumulant(scenario, [Letter("X", 2), Letter("X")]) == 2
    assert mixed_cumulant(scenario, [Letter("X", F(1, 2))]) == F(1, 2)
    with pytest.raises(OrderTooLow):
        mixed_cumulant(scenario, [Letter("X")] * 7)


def test_mixed_moment_basics(scenario):
    assert mixed_moment(scenario, Word.parse("X")) == 1
    # free factorisation of a split word
    assert mixed_moment(scenario, Word.parse("X Y")) == 2
    assert mixed_moment(scenario, Word.parse("Y X")) == 2


def test_mixed_moment_needs_every_cumulant_of_its_word():
    # every block through position 1 of every interval is read, so a zero
    # expectation elsewhere does not hide a missing cumulant
    sc = Scenario({"X": CumulantSequence((1,)), "Y": CumulantSequence((0, 1))})
    with pytest.raises(OrderTooLow):
        mixed_moment(sc, Word.parse("Y X X"))


def test_mixed_moment_matches_single_variable(scenario):
    kx = scenario.algebras["X"]
    mx = cumulants_to_moments(kx)
    for n in range(1, 7):
        w = Word(tuple(Letter("X") for _ in range(n)))
        assert mixed_moment(scenario, w) == mx.values[n - 1]


def test_mixed_moment_alternating_matches_product_route(scenario):
    kx, ky = scenario.algebras["X"], scenario.algebras["Y"]
    got = mixed_moment(scenario, Word.parse("X Y X Y"))
    want = cumulants_to_moments(
        CumulantSequence((free_multiplicative(kx, ky, 1), free_multiplicative(kx, ky, 2)))
    ).values[1]
    assert got == want


def test_mixed_tcoeff_basics(scenario):
    assert mixed_tcoeff(scenario, Word.parse("X")) == 1
    assert mixed_tcoeff(scenario, Word.parse("Y")) == 2
    assert mixed_tcoeff(scenario, Word.parse("X Y")) == 0
    assert mixed_tcoeff(scenario, Word.parse("Y X")) == 0


def test_mixed_tcoeff_matches_single_variable(scenario):
    for name in ("X", "Y"):
        seq = scenario.algebras[name]
        t = moments_to_tcoeffs(cumulants_to_moments(seq))
        for n in range(1, 7):
            w = Word(tuple(Letter(name) for _ in range(n)))
            assert mixed_tcoeff(scenario, w) == t.values[n - 1]


def test_mixed_tcoeff_length_two_hand_recursion(scenario):
    # phi(XY) = t0(X) t0(Y) + t1(X, Y) t0(Y)
    phi_xy = mixed_moment(scenario, Word.parse("X Y"))
    t0x = mixed_tcoeff(scenario, Word.parse("X"))
    t0y = mixed_tcoeff(scenario, Word.parse("Y"))
    t1xy = mixed_tcoeff(scenario, Word.parse("X Y"))
    assert phi_xy == t0x * t0y + t1xy * t0y


def test_mixed_tcoeff_rejects_zero_expectation():
    sc = Scenario({"X": CumulantSequence((0, 1)), "Y": CumulantSequence((1, 1))})
    with pytest.raises(LetterNotInDomain):
        mixed_tcoeff(sc, Word.parse("X Y"))
    with pytest.raises(LetterNotInDomain):
        mixed_tcoeff(sc, [Letter("Y", 0), Letter("Y")])


@pytest.mark.parametrize("word_fn", [mixed_moment, mixed_cumulant, mixed_tcoeff])
@pytest.mark.parametrize("text", ["Z", "X Z Y", "X 2*Z"])
def test_a_letter_outside_the_scenario_is_named(scenario, word_fn, text):
    with pytest.raises(LetterNotInDomain, match="algebra 'Z' is not in the scenario"):
        word_fn(scenario, Word.parse(text))


def test_mixed_cumulant_of_no_letters_is_refused_like_a_word(scenario):
    with pytest.raises(ValueError) as err:
        mixed_cumulant(scenario, [])
    with pytest.raises(ValueError) as word_err:
        Word(())
    assert str(err.value) == str(word_err.value)


@pytest.mark.parametrize("word_fn, length", [(mixed_tcoeff, 10), (mixed_moment, 13)])
def test_long_words_hit_the_partition_caps(word_fn, length):
    # the ncl cap (9) bounds mixed_tcoeff's words and the nc cap (12)
    # mixed_moment's, checked before any table entry exists
    sc = Scenario({"X": CumulantSequence((1,) * length)})
    start = time.perf_counter()
    with pytest.raises(LimitExceeded):
        word_fn(sc, Word((Letter("X"),) * length))
    assert time.perf_counter() - start < 1


def test_scenario_is_immutable(scenario):
    with pytest.raises(FrozenInstanceError):
        scenario.algebras = {}
    with pytest.raises(TypeError):
        scenario.algebras["Z"] = CumulantSequence((1,))
    assert Scenario(dict(scenario.algebras)) == scenario  # compared by value


@pytest.mark.parametrize("length", [3, 4, 5, 6])
@pytest.mark.parametrize("which", ["scenario", "seeded_scenario"])
def test_mixed_tcoeff_defining_equation(request, which, length):
    # phi(a_1 ... a_n) = sum over NCL(n) of the product of block t-coefficients
    # and of the expectations at the non-minimal positions
    sc = request.getfixturevalue(which)
    rng = random.Random(1000 * length + len(which))
    t = cache(lambda letters: mixed_tcoeff(sc, letters))
    ids = sorted(sc.algebras)[: 1 + length % 2]  # one algebra at even lengths
    word = tuple(Letter(rng.choice(ids), F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
                 for _ in range(length))
    total = F(0)
    for pi in brute_ncl(length):
        term = prod(t(tuple(word[i - 1] for i in blk)) for blk in pi.blocks)
        minima = {blk[0] for blk in pi.blocks}
        for e in set(range(1, length + 1)) - minima:
            term *= sc.first_moment(word[e - 1])
        total += term
    assert total == mixed_moment(sc, word)


_SCALES = [F(1), F(-1), F(2), F(-3, 2), F(1, 3)]


def _three_algebra_words(seed, order=6):
    """A seeded scenario over three algebras, some with a negative first
    cumulant, and words of length 1..6 with negative and non-unit scales."""
    rng = random.Random(seed)
    sc = Scenario({
        name: CumulantSequence(tuple(
            F(rng.choice([-3, -2, -1, 1, 2, 3]) if i == 0 else rng.randint(-3, 3),
              rng.randint(1, 4))
            for i in range(order)))
        for name in ("A", "B", "C")
    })
    words = [tuple(Letter(rng.choice(ids), rng.choice(_SCALES)) for _ in range(length))
             for length in (1, 2, 3, 4, 5, 6) for ids in ("ABC", rng.choice("ABC"))]
    return sc, words


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tcoeffs_agree_with_the_fraction_recursion(seed):
    sc, words = _three_algebra_words(seed)
    assert any(sc.first_moment(l) < 0 for w in words for l in w)
    got = freeness._tcoeffs(sc, words)
    want = tcoeffs_by_fractions(sc, words)
    assert got == want
    assert all(type(v) is F for v in got)
    assert any(v != 0 for w, v in zip(words, got) if len(w) > 1)
    for w in words:
        assert mixed_moment(sc, w) == mixed_moment_by_fractions(sc, w)


def _mixed_blocks_do_not_vanish(original):
    # a mutant cumulant: the letters' scales over the block size on mixed blocks
    def broken(scenario, letters):
        letters = tuple(getattr(letters, "letters", letters))
        if len({l.algebra for l in letters}) > 1:
            return prod(l.scale for l in letters) / len(letters)
        return original(scenario, letters)

    return broken


@pytest.fixture
def mutant(monkeypatch):
    broken = _mixed_blocks_do_not_vanish(freeness.mixed_cumulant)
    monkeypatch.setattr(freeness, "mixed_cumulant", broken)
    monkeypatch.setattr(oracles, "mixed_cumulant", broken)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tcoeffs_agree_with_the_fraction_recursion_when_mixed_cumulants_do_not_vanish(
        mutant, seed):
    # the recursions read every block through mixed_cumulant, so a failing
    # prop22 witness carries the value the partition sums give
    sc, words = _three_algebra_words(seed)
    got = freeness._tcoeffs(sc, words)
    assert got == tcoeffs_by_fractions(sc, words)
    assert any(v != 0 for w, v in zip(words, got) if len({l.algebra for l in w}) > 1)
    for w in words:
        assert mixed_moment(sc, w) == mixed_moment_by_fractions(sc, w)
    two = Scenario({a: sc.algebras[a] for a in "AB"})
    report = freeness_vanishing_suite(two, 4)
    failed = [f for f in report.failures if f["kind"] == "t-coefficient"]
    assert failed
    want = tcoeffs_by_fractions(two, [tuple(Word.parse(f["word"]).letters) for f in failed])
    assert [f["value"] for f in failed] == [str(v) for v in want]


@pytest.mark.parametrize("vanishing", [True, False])
def test_long_words_agree_with_the_partition_sums(request, vanishing):
    # mixed_moment at 10 letters against the NC(10) sum, mixed_tcoeff at 8
    # against the NCL(k) expansions of all its sub-words
    if not vanishing:
        request.getfixturevalue("mutant")
    sc, _ = _three_algebra_words(4, order=10)
    rng = random.Random(5)
    ten, eight = (tuple(Letter(rng.choice("ABC"), rng.choice(_SCALES)) for _ in range(n))
                  for n in (10, 8))
    assert mixed_moment(sc, ten) == mixed_moment_by_fractions(sc, ten)
    got = mixed_tcoeff(sc, eight)
    assert got == tcoeffs_by_fractions(sc, [eight])[0]
    assert (got == 0) == vanishing


def test_freeness_enumerates_no_partitions(monkeypatch, capsys):
    # moments and t-coefficients come from the first-block recursions; the
    # NC(n)/NCL(n) enumerations only prove identities
    kx = CumulantSequence(tuple(range(1, 13)))
    ky = CumulantSequence(tuple(F(1, n) for n in range(1, 13)))
    sc = Scenario({"X": kx, "Y": ky})
    product_route = cumulants_to_moments(
        CumulantSequence(tuple(free_multiplicative(kx, ky, n) for n in range(1, 7)))).values[5]
    pure_t = moments_to_tcoeffs(cumulants_to_moments(kx)).values[8]

    def refuse(*args, **kwargs):
        raise AssertionError("freeness enumerated partitions")

    for mod in [m for name, m in sys.modules.items() if name.startswith("noncrossing")]:
        for name in ("enumerate_nc", "enumerate_ncl", "iter_nc", "iter_ncl", "iter_blocks"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    assert cli.main(["verify", "prop22"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert mixed_moment(sc, Word.parse(" ".join("XY" * 6))) == product_route
    assert mixed_tcoeff(sc, Word.parse(" ".join("X" * 9))) == pure_t
    assert mixed_tcoeff(sc, Word.parse("X Y X X Y Y X Y X")) == 0


# ---------------------------------------------------------------------------
# scaling law


def test_scaling_law(scenario):
    words = [
        Word.parse("X Y"),
        Word.parse("X Y X"),
        Word.parse("Y X X Y"),
        Word.parse("X X X X"),
    ]
    for w in words:
        base = mixed_tcoeff(scenario, w)
        for c in (F(2), F(-1), F(1, 3)):
            first_scaled = Word((Letter(w.letters[0].algebra, c),) + w.letters[1:])
            assert mixed_tcoeff(scenario, first_scaled) == c * base
            for pos in range(1, len(w.letters)):
                letters = list(w.letters)
                letters[pos] = Letter(letters[pos].algebra, c)
                assert mixed_tcoeff(scenario, Word(tuple(letters))) == base


# ---------------------------------------------------------------------------
# sum and product oracles


def test_sum_moments_small(scenario):
    assert sum_moments(scenario, "X", "Y", 1).values == (3,)
    m2 = sum_moments(scenario, "X", "Y", 2).values[1]
    mx = cumulants_to_moments(scenario.algebras["X"]).values
    my = cumulants_to_moments(scenario.algebras["Y"]).values
    assert m2 == mx[1] + 2 * mx[0] * my[0] + my[1]


def test_sum_moments_cumulants_add(scenario, seeded_scenario):
    for sc, (a, b) in ((scenario, ("X", "Y")), (seeded_scenario, ("A", "B"))):
        got = moments_to_cumulants(sum_moments(sc, a, b, 5))
        want = free_additive(
            CumulantSequence(sc.algebras[a].values[:5]),
            CumulantSequence(sc.algebras[b].values[:5]),
        )
        assert got == want


@pytest.mark.parametrize("moments, order, error, message", [
    (sum_moments, 13, LimitExceeded, "nc is capped at 12 (requested 13)"),
    (product_moments, 7, LimitExceeded, "nc is capped at 12 (requested 14)"),
    (sum_moments, 0, ValueError, "nc needs a size of at least 1 (requested 0)"),
    (product_moments, 0, ValueError, "nc needs a size of at least 1 (requested 0)"),
], ids=["sum", "product", "sum-zero", "product-zero"])
def test_free_sum_and_product_check_the_cap_before_any_word(
        monkeypatch, moments, order, error, message):
    # the longest word is checked first: without it, a sum of order 13
    # solves one table of every word of 1..13 letters (about a minute)
    sc = Scenario({"X": CumulantSequence((1,) * 14), "Y": CumulantSequence((2,) * 14)})

    def refuse(*args, **kwargs):
        raise AssertionError("a word was expanded before the cap was checked")

    monkeypatch.setattr(freeness, "mixed_moment", refuse)
    monkeypatch.setattr(freeness, "_moments", refuse)
    start = time.perf_counter()
    with pytest.raises(error) as err:
        moments(sc, "X", "Y", order)
    assert time.perf_counter() - start < 0.1
    assert str(err.value) == message


@pytest.mark.parametrize("x_id, y_id", [("X", "Y"), ("Y", "X"), ("X", "X")])
def test_free_sum_and_product_solve_one_table(monkeypatch, x_id, y_id):
    # each solves one table of every word's intervals, and reads the moments
    # mixed_moment gives word by word
    # twelve cumulants each: with x_id == y_id a product word is one pure word
    sc = Scenario({"X": CumulantSequence((1, -2, F(1, 3), 0, 5, F(-7, 2), 2) + (1,) * 5),
                   "Y": CumulantSequence((F(1, 2), 1, 0, F(-4, 5), 3, 1, F(2, 9)) + (-1,) * 5)})
    xy = (Letter(x_id), Letter(y_id))
    want_sum = [sum(mixed_moment(sc, [xy[i] for i in w]) for w in product((0, 1), repeat=n))
                for n in range(1, 8)]
    want_product = [mixed_moment(sc, list(xy) * n) for n in range(1, 7)]
    calls = []

    def counted(*args, _moments=freeness._moments):
        calls.append(args)
        return _moments(*args)

    monkeypatch.setattr(freeness, "_moments", counted)
    for order in range(1, 8):
        calls.clear()
        assert list(sum_moments(sc, x_id, y_id, order).values) == want_sum[:order]
        assert len(calls) == 1
        if order <= 6:
            calls.clear()
            assert list(product_moments(sc, x_id, y_id, order).values) == want_product[:order]
            assert len(calls) == 1


def test_free_sum_and_product_at_the_cap(seeded_scenario):
    # the largest orders the nc cap allows: words of up to 6 and 12 letters
    kx, ky = seeded_scenario.algebras["A"], seeded_scenario.algebras["B"]
    assert moments_to_cumulants(sum_moments(seeded_scenario, "A", "B", 6)) == free_additive(kx, ky)
    assert product_moments(seeded_scenario, "A", "B", 6) == cumulants_to_moments(
        CumulantSequence(tuple(free_multiplicative(kx, ky, n) for n in range(1, 7))))


def test_product_moments_first(scenario):
    assert product_moments(scenario, "X", "Y", 1).values == (2,)


def test_product_moments_match_kreweras_route(scenario, seeded_scenario):
    for sc, (a, b) in ((scenario, ("X", "Y")), (seeded_scenario, ("A", "B"))):
        got = product_moments(sc, a, b, 5)
        kx, ky = sc.algebras[a], sc.algebras[b]
        want = cumulants_to_moments(
            CumulantSequence(tuple(free_multiplicative(kx, ky, n) for n in range(1, 6)))
        )
        assert got == want


def test_product_tcoeffs_convolve(scenario):
    # the product's t-coefficients, read off alternating-word moments,
    # equal the convolution of the factors' t-coefficients
    from noncrossing.transforms import t_convolve

    m_xy = product_moments(scenario, "X", "Y", 5)
    t_xy = moments_to_tcoeffs(m_xy)
    tx = moments_to_tcoeffs(cumulants_to_moments(CumulantSequence(scenario.algebras["X"].values[:5])))
    ty = moments_to_tcoeffs(cumulants_to_moments(CumulantSequence(scenario.algebras["Y"].values[:5])))
    assert t_xy == t_convolve(tx, ty)


# ---------------------------------------------------------------------------
# vanishing sweep


def test_vanishing_suite_two_algebras(scenario):
    report = freeness_vanishing_suite(scenario, 4)
    assert report.passed
    assert report.words_checked == sum(2**n - 2 for n in range(2, 5))


def test_vanishing_suite_seeded(seeded_scenario):
    report = freeness_vanishing_suite(seeded_scenario, 6)
    assert report.passed


def test_vanishing_suite_hashes_each_letter_once(monkeypatch, seeded_scenario):
    # a Letter hash hashes its Fraction scale: the sweep hashes each letter
    # of each word once, to code it, and looks nothing up by letters
    hashes = 0
    letter_hash = Letter.__hash__

    def counted(letter):
        nonlocal hashes
        hashes += 1
        return letter_hash(letter)

    monkeypatch.setattr(Letter, "__hash__", counted)
    report = freeness_vanishing_suite(seeded_scenario, 6)
    assert report.passed
    assert hashes == sum(n * (2**n - 2) for n in range(2, 7))


def test_vanishing_suite_single_algebra():
    sc = Scenario({"X": CumulantSequence((1, 1, 1))})
    report = freeness_vanishing_suite(sc, 3)
    assert report.passed
    assert report.words_checked == 0


@pytest.mark.parametrize("max_length", [10, 11])
def test_vanishing_sweep_checks_the_cap_before_any_word(monkeypatch, max_length):
    # without the check, three algebras build every mixed word up to
    # max_length (265,686 at 11) before the first 10-letter word is refused
    sc = Scenario({a: CumulantSequence((1,) * 14) for a in "XYZ"})
    for short in (1, 0, -1):
        assert freeness_vanishing_suite(sc, short) == VanishingReport(0, ())

    def refuse(*args, **kwargs):
        raise AssertionError("a word was built before the cap was checked")

    monkeypatch.setattr(freeness, "_tcoeffs", refuse)
    start = time.perf_counter()
    with pytest.raises(LimitExceeded) as err:
        freeness_vanishing_suite(sc, max_length)
    assert time.perf_counter() - start < 0.1
    assert str(err.value) == f"ncl is capped at 9 (requested {max_length})"


def test_all_mixed_words_vanish_explicitly(scenario):
    for n in range(2, 5):
        for combo in product("XY", repeat=n):
            if len(set(combo)) < 2:
                continue
            w = Word(tuple(Letter(a) for a in combo))
            assert mixed_tcoeff(scenario, w) == 0
            assert mixed_cumulant(scenario, w) == 0
