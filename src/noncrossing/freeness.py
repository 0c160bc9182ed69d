"""Mixed moments, cumulants, and t-coefficients of words over free generators.

A scenario holds one generator per algebra, given by its cumulant
sequence; distinct algebras are mutually free.  A word is a sequence of
letters, each a scaled generator.  Mixed cumulants vanish across
algebras and are multilinear, which determines every mixed moment.  The
multivariate t-coefficients are defined by the linked-partition expansion
of the moments.

Both expansions of the moment of u = u_1 ... u_k split on the block
B = {1 = b_1 < ... < b_s} that holds position 1.  Set b_{s+1} = k + 1 and
let the empty word have moment 1.

* NC sum of cumulants:
  m(u) = sum_B kappa(u_B) * prod_{i=1..s} m(u_{b_i + 1} ... u_{b_{i+1} - 1}).
* Linked-partition expansion:
  m(u) = sum_B t(u_B) * m(u_2 ... u_{b_2 - 1}) * prod_{i=2..s} m(u_{b_i} ... u_{b_{i+1} - 1}).
  A block linked at b_i (i >= 2) lies in b_i and its gap.  "b_i is the
  minimum of no block" (weight m(u_{b_i})) and "a block starts at b_i"
  together sum to the moment of that piece.  Nothing links at b_1, a
  block minimum, so the first gap is open.  The B = {1..k} term is t(u)
  times the product of m(u_i) over i >= 2; t(u) is solved from it.

Every contiguous piece of a sub-word is a shorter sub-word, so one table
keyed by sub-word holds everything both recursions read.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import prod
from types import MappingProxyType

from .errors import Frozen, LetterNotInDomain, OrderTooLow, shorten
from .limits import check_limit, rational
from .transforms import CumulantSequence, MomentSequence, _dot, _sum

_set = object.__setattr__


def _algebra_name(name) -> str:
    """``name`` if a letter of it prints as one token that parses back: a
    nonempty string with no ``*`` and no whitespace."""
    if not isinstance(name, str) or name.split() != [name] or "*" in name:
        raise ValueError(f"an algebra name is a nonempty string with no '*' or whitespace, "
                         f"not {shorten(repr(name))}")
    return name


class Letter(Frozen):
    """A scaled generator: ``scale`` times the generator of ``algebra``."""

    __slots__ = _fields = ("algebra", "scale")

    def __init__(self, algebra: str, scale=Fraction(1)):
        _set(self, "algebra", _algebra_name(algebra))
        _set(self, "scale", rational(scale))

    def __str__(self) -> str:
        return self.algebra if self.scale == 1 else f"{self.scale}*{self.algebra}"


class Word(Frozen):
    """A nonempty product of letters."""

    __slots__ = _fields = ("letters",)

    def __init__(self, letters):
        letters = tuple(letters)
        if not letters:
            raise ValueError("a word needs at least one letter")
        _set(self, "letters", letters)

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.letters)

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse ``"X Y 2*X -1/3*Y"`` into a word; a scale follows the
        grammar of :func:`limits.rational`."""
        letters = []
        for token in text.split():
            scale, star, algebra = token.partition("*")
            try:
                letters.append(Letter(algebra, scale) if star else Letter(token))
            except ValueError as exc:
                raise ValueError(f"letter {shorten(repr(token))}: {exc}") from None
        return cls(tuple(letters))


class Scenario(Frozen):
    """Mutually free generators, one per algebra id, in a read-only mapping."""

    __slots__ = _fields = ("algebras",)

    def __init__(self, algebras: Mapping[str, CumulantSequence]):
        _set(self, "algebras", MappingProxyType({_algebra_name(a): k for a, k in algebras.items()}))

    def first_moment(self, letter: Letter) -> Fraction:
        return letter.scale * _cumulants(self, letter).values[0]


def _cumulants(scenario: Scenario, letter: Letter) -> CumulantSequence:
    """The cumulant sequence of the letter's algebra, which the scenario must hold."""
    try:
        return scenario.algebras[letter.algebra]
    except KeyError:
        raise LetterNotInDomain(
            f"letter {letter}: algebra {letter.algebra!r} is not in the scenario") from None


def _letters(word) -> tuple[Letter, ...]:
    """The letters of a word, or of a sequence of letters checked as one."""
    return (word if isinstance(word, Word) else Word(word)).letters


def mixed_cumulant(scenario: Scenario, letters) -> Fraction:
    """Joint cumulant of the letters: zero across algebras, multilinear
    within one.  Every letter's algebra must be in the scenario."""
    letters = _letters(letters)
    seqs = {l.algebra: _cumulants(scenario, l) for l in letters}
    if len(seqs) > 1:
        return Fraction(0)
    (seq,) = seqs.values()
    if len(letters) > seq.order:
        raise OrderTooLow(f"need cumulants up to order {len(letters)}")
    return prod(l.scale for l in letters) * seq.values[len(letters) - 1]


@cache
def _first_blocks(k: int) -> tuple:
    """Every block of {0..k-1} that holds 0, with the (start, stop) slices of
    its NC gaps and of its linked pieces, empty ones left out (see the
    module docstring); the full block comes last."""
    shapes = []
    for r in range(k):
        for rest in combinations(range(1, k), r):
            blk = (0, *rest)
            ends = (*rest, k)
            gaps = tuple((b + 1, c) for b, c in zip(blk, ends) if c > b + 1)
            pieces = ((1, ends[0]),) if ends[0] > 1 else ()
            shapes.append((blk, gaps, pieces + tuple(zip(rest, ends[1:]))))
    return tuple(shapes)


def _code(words) -> tuple[list[Letter], list[tuple[int, ...]]]:
    """The distinct letters of the words, and each word as a tuple of their
    indices: sub-words as int tuples hash fast.  Each letter of each word is
    hashed once (a ``Letter`` hash hashes its ``Fraction`` scale)."""
    code: dict[Letter, int] = {}
    coded = [tuple([code.setdefault(l, len(code)) for l in w]) for w in words]
    return list(code), coded


def _moments(scenario: Scenario, letters, subs) -> dict:
    """The moment of each sub-word in ``subs`` (a tuple of indices into
    ``letters``, every contiguous piece listed before it), as a reduced pair,
    by the first-block recursion of the NC sum of cumulants."""
    kappa = cache(lambda sub: mixed_cumulant(
        scenario, [letters[i] for i in sub]).as_integer_ratio())
    table: dict = {}
    for sub in subs:
        terms = []
        for blk, gaps, _ in _first_blocks(len(sub)):
            p, q = kappa(tuple(map(sub.__getitem__, blk)))
            for a, b in gaps:
                if not p:
                    break
                r, s = table[sub[a:b]]
                p, q = p * r, q * s
            if p:
                terms.append((p, q))
        table[sub] = _sum(terms)
    return table


def mixed_moment(scenario: Scenario, word) -> Fraction:
    """Moment of the word: the NC sum of block cumulants, split on the block
    B that holds position 1,

        m(u) = sum_B kappa(u_B) * prod_{i=1..s} m(u_{b_i + 1} ... u_{b_{i+1} - 1}),

    solved over the word's contiguous intervals, shortest first.  The ``nc``
    cap bounds the word length."""
    letters = _letters(word)
    check_limit("nc", len(letters))
    letters, (coded,) = _code([letters])
    k = len(coded)
    intervals = dict.fromkeys(coded[a:a + n] for n in range(1, k + 1) for a in range(k - n + 1))
    return Fraction(*_moments(scenario, letters, intervals)[coded])


def _tcoeffs(scenario: Scenario, words) -> list[Fraction]:
    """The t-coefficients of the words, in their order, from one table of
    all their sub-words (letters at increasing positions) solved shortest
    first.  The linked-partition expansion, split on the block B that holds
    position 1, is

        m(u) = sum_B t(u_B) * m(u_2 ... u_{b_2 - 1}) * prod_{i=2..s} m(u_{b_i} ... u_{b_{i+1} - 1}),

    so t(u) is the moment (:func:`_moments`) less every term but the full
    block's, over the non-leading letters' expectations.  The ``ncl`` cap
    bounds the word length."""
    words = [_letters(w) for w in words]
    letters, coded = _code(words)
    first = [scenario.first_moment(l).as_integer_ratio() for l in letters]
    for l, (p, _) in zip(letters, first):
        if p == 0:
            raise LetterNotInDomain(f"letter {l} has zero expectation")
    for word in words:
        check_limit("ncl", len(word))
    subwords = set(coded)  # each sub-word drops one letter of a longer one
    for k in range(max(map(len, coded), default=0), 1, -1):
        subwords |= {w[:i] + w[i + 1:] for w in subwords if len(w) == k for i in range(k)}
    subwords = sorted(subwords, key=len)
    moment = _moments(scenario, letters, subwords)
    table: dict = {}
    for sub in subwords:
        terms = [moment[sub]]
        for blk, _, pieces in _first_blocks(len(sub))[:-1]:
            p, q = table[tuple(map(sub.__getitem__, blk))]
            p = -p
            for a, b in pieces:
                if not p:
                    break
                r, s = moment[sub[a:b]]
                p, q = p * r, q * s
            if p:
                terms.append((p, q))
        r, s = prod(first[i][0] for i in sub[1:]), prod(first[i][1] for i in sub[1:])
        table[sub] = _dot([_sum(terms)], [(s, r)])
    return [Fraction(*table[c]) for c in coded]


def mixed_tcoeff(scenario: Scenario, word) -> Fraction:
    """The multivariate t-coefficient of the word, defined by the
    linked-partition expansion of its moment (see :func:`_tcoeffs`)."""
    return _tcoeffs(scenario, [word])[0]


def sum_moments(scenario: Scenario, x_id: str, y_id: str, order: int) -> MomentSequence:
    """Moments of the sum of two free generators, expanded letter by letter
    over all words in the two generators.  Every contiguous piece of a word
    is a shorter word, so one :func:`_moments` table holds them all.  The
    ``nc`` cap bounds the order, checked before any word is built."""
    check_limit("nc", order)
    words = [w for n in range(1, order + 1) for w in product((0, 1), repeat=n)]
    moment = _moments(scenario, [Letter(x_id), Letter(y_id)], words)
    return MomentSequence._from_pairs(tuple(
        _sum([moment[w] for w in product((0, 1), repeat=n)]) for n in range(1, order + 1)))


def product_moments(scenario: Scenario, x_id: str, y_id: str, order: int) -> MomentSequence:
    """Moments of the product of two free generators, read off alternating
    words from one :func:`_moments` table of their intervals.  The ``nc``
    cap bounds the longest word, of 2 * order letters, checked before any
    word is built."""
    check_limit("nc", 2 * order)
    alternating = (0, 1) * (order + 1)
    intervals = [alternating[a:a + n] for n in range(1, 2 * order + 1) for a in (0, 1)]
    moment = _moments(scenario, [Letter(x_id), Letter(y_id)], intervals)
    return MomentSequence._from_pairs(tuple(moment[alternating[:2 * n]]
                                            for n in range(1, order + 1)))


class VanishingReport(Frozen):
    """Outcome of the mixed-word vanishing sweep: the number of words
    checked and a tuple of witnesses ``{"word", "kind", "value"}``."""

    __slots__ = _fields = ("words_checked", "failures")

    def __init__(self, words_checked: int, failures: tuple[dict, ...]):
        _set(self, "words_checked", words_checked)
        _set(self, "failures", failures)

    @property
    def passed(self) -> bool:
        return not self.failures


def freeness_vanishing_suite(scenario: Scenario, max_length: int) -> VanishingReport:
    """Check that every mixed word has vanishing cumulant and t-coefficient.

    Sweeps all words of length up to ``max_length`` over the scenario's
    algebras that use at least two of them, and records any counterexample.
    The ``ncl`` cap bounds ``max_length``, checked before any word is built;
    below 2 there is no word, and the sweep is empty.
    """
    if max_length >= 2:
        check_limit("ncl", max_length)
    generators = {a: Letter(a) for a in sorted(scenario.algebras)}
    words = [Word(tuple(map(generators.__getitem__, combo)))
             for n in range(2, max_length + 1) for combo in product(generators, repeat=n)
             if len(set(combo)) > 1]
    failures = []
    for word, t in zip(words, _tcoeffs(scenario, words)):
        for kind, value in (("cumulant", mixed_cumulant(scenario, word)),
                            ("t-coefficient", t)):
            if value != 0:
                failures.append({"word": str(word), "kind": kind, "value": str(value)})
    return VanishingReport(len(words), tuple(failures))
