"""Mixed moments, cumulants, and t-coefficients of words over free generators.

A scenario holds one generator per algebra, given by its cumulant
sequence; distinct algebras are mutually free.  A word is a sequence of
letters, each a scaled generator.  Mixed cumulants vanish across
algebras and are multilinear, which determines every mixed moment.  The
multivariate t-coefficient of a word is solved from the linked-partition
expansion of its moment, solving its shorter sub-words first.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product
from math import prod
from types import MappingProxyType

from .errors import LetterNotInDomain, OrderTooLow
from .limits import check_limit
from .partitions import enumerate_nc, enumerate_ncl, non_minimal_elements
from .transforms import CumulantSequence, MomentSequence, _dot, _pairs, _sum


@dataclass(frozen=True)
class Letter:
    """A scaled generator: ``scale`` times the generator of ``algebra``."""

    algebra: str
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "scale", Fraction(self.scale))

    def __str__(self) -> str:
        return self.algebra if self.scale == 1 else f"{self.scale}*{self.algebra}"


@dataclass(frozen=True)
class Word:
    """A nonempty product of letters."""

    letters: tuple[Letter, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.letters:
            raise ValueError("a word needs at least one letter")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.letters)

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse ``"X Y 2*X -1/3*Y"`` into a word."""
        letters = []
        for token in text.split():
            if "*" in token:
                scale, _, algebra = token.partition("*")
                letters.append(Letter(algebra, Fraction(scale)))
            else:
                letters.append(Letter(token))
        return cls(tuple(letters))


@dataclass(frozen=True)
class Scenario:
    """Mutually free generators, one per algebra id, in a read-only mapping."""

    algebras: Mapping[str, CumulantSequence]

    def __post_init__(self):
        object.__setattr__(self, "algebras", MappingProxyType(dict(self.algebras)))

    def first_moment(self, letter: Letter) -> Fraction:
        return letter.scale * self.algebras[letter.algebra].values[0]


def _letters(word) -> tuple[Letter, ...]:
    if isinstance(word, Word):
        return word.letters
    return tuple(word)


def mixed_cumulant(scenario: Scenario, letters) -> Fraction:
    """Joint cumulant of the letters: zero across algebras, multilinear
    within one."""
    letters = _letters(letters)
    ids = {l.algebra for l in letters}
    if len(ids) > 1:
        return Fraction(0)
    seq = scenario.algebras[ids.pop()]
    if len(letters) > seq.order:
        raise OrderTooLow(f"need cumulants up to order {len(letters)}")
    return prod(l.scale for l in letters) * seq.values[len(letters) - 1]


def mixed_moment(scenario: Scenario, word) -> Fraction:
    """Moment of the word: sum over non-crossing partitions of products of
    block cumulants; the ``nc`` cap bounds the word length."""
    letters = _letters(word)
    kappa = cache(lambda blk: mixed_cumulant(
        scenario, [letters[i - 1] for i in blk]).as_integer_ratio())
    terms = []
    for gamma in enumerate_nc(len(letters)):
        p = q = 1
        for blk in gamma.blocks:
            r, s = kappa(blk)
            p, q = p * r, q * s
            if not p:
                break
        else:
            terms.append((p, q))
    return Fraction(*_sum(terms))


def _tcoeffs(scenario: Scenario, words) -> dict:
    """The t-coefficients of the words, from one table of all their sub-words
    (letters at increasing positions) solved shortest first: the moment less
    every linked-partition term but the full block, over the non-leading
    letters' expectations.  The ``ncl`` cap bounds the word length."""
    words = [_letters(w) for w in words]
    letters = list(dict.fromkeys(chain.from_iterable(words)))
    first = _pairs(map(scenario.first_moment, letters))
    for l, (p, _) in zip(letters, first):
        if p == 0:
            raise LetterNotInDomain(f"letter {l} has zero expectation")
    for word in words:
        check_limit("ncl", len(word))
    # sub-words as int tuples hash fast; a dict, not a set, fixes the solve order
    code = {l: i for i, l in enumerate(letters)}
    coded = [tuple(code[l] for l in w) for w in words]
    subwords = dict.fromkeys(tuple(w[i] for i in idx) for w in coded for k in range(len(w))
                             for idx in combinations(range(len(w)), k + 1))
    # per length, every linked partition but the full block, which carries the unknown
    shapes = {k: [(pi.blocks, non_minimal_elements(pi)) for pi in enumerate_ncl(k)
                  if len(pi.blocks) > 1] for k in set(map(len, subwords))}
    table: dict = {}
    for sub in sorted(subwords, key=len):
        terms = [mixed_moment(scenario, [letters[i] for i in sub]).as_integer_ratio()]
        for blocks, nonminimal in shapes[len(sub)]:
            p, q = -1, 1
            for blk in blocks:
                r, s = table[tuple(sub[i - 1] for i in blk)]
                p, q = p * r, q * s
                if not p:
                    break
            else:
                for e in nonminimal:
                    p, q = p * first[sub[e - 1]][0], q * first[sub[e - 1]][1]
                terms.append((p, q))
        r, s = prod(first[i][0] for i in sub[1:]), prod(first[i][1] for i in sub[1:])
        table[sub] = _dot([_sum(terms)], [(s, r)])
    return {w: Fraction(*table[c]) for w, c in zip(words, coded)}


def mixed_tcoeff(scenario: Scenario, word) -> Fraction:
    """The multivariate t-coefficient of the word, defined by the
    linked-partition expansion of its moment (see :func:`_tcoeffs`)."""
    letters = _letters(word)
    return _tcoeffs(scenario, [letters])[letters]


def sum_moments(scenario: Scenario, x_id: str, y_id: str, order: int) -> MomentSequence:
    """Moments of the sum of two free generators, expanded letter by letter
    over all words in the two generators."""
    values = []
    for n in range(1, order + 1):
        total = Fraction(0)
        for combo in product((x_id, y_id), repeat=n):
            total += mixed_moment(scenario, [Letter(a) for a in combo])
        values.append(total)
    return MomentSequence(tuple(values))


def product_moments(scenario: Scenario, x_id: str, y_id: str, order: int) -> MomentSequence:
    """Moments of the product of two free generators, read off alternating
    words."""
    values = []
    for n in range(1, order + 1):
        word = [Letter(x_id if i % 2 == 0 else y_id) for i in range(2 * n)]
        values.append(mixed_moment(scenario, word))
    return MomentSequence(tuple(values))


@dataclass(frozen=True)
class VanishingReport:
    """Outcome of the mixed-word vanishing sweep."""

    words_checked: int
    failures: tuple[dict, ...]  # witnesses {"word", "kind", "value"}

    @property
    def passed(self) -> bool:
        return not self.failures


def freeness_vanishing_suite(scenario: Scenario, max_length: int) -> VanishingReport:
    """Check that every mixed word has vanishing cumulant and t-coefficient.

    Sweeps all words of length up to ``max_length`` over the scenario's
    algebras that use at least two of them, and records any counterexample.
    """
    ids = sorted(scenario.algebras)
    words = [Word(tuple(Letter(a) for a in combo))
             for n in range(2, max_length + 1) for combo in product(ids, repeat=n)
             if len(set(combo)) > 1]
    table = _tcoeffs(scenario, words)
    failures = []
    for word in words:
        for kind, value in (("cumulant", mixed_cumulant(scenario, word)),
                            ("t-coefficient", table[word.letters])):
            if value != 0:
                failures.append({"word": str(word), "kind": kind, "value": str(value)})
    return VanishingReport(len(words), tuple(failures))
