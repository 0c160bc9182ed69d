"""Mixed moments, cumulants, and t-coefficients of words over free generators.

A scenario holds one generator per algebra, given by its cumulant
sequence; distinct algebras are mutually free.  A word is a sequence of
letters, each a scaled generator.  Mixed cumulants vanish across
algebras and are multilinear, which determines every mixed moment.  The
multivariate t-coefficient of a word is solved from the linked-partition
expansion of its moment, recursing into shorter sub-words.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from types import MappingProxyType

from .errors import LetterNotInDomain, OrderTooLow
from .partitions import enumerate_nc, enumerate_ncl, non_minimal_elements
from .transforms import CumulantSequence, MomentSequence


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


@dataclass(frozen=True, eq=False)
class Scenario:
    """Mutually free generators, one per algebra id, in a read-only mapping.

    Compared and hashed by identity, which keys the t-coefficient memo.
    """

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
    total = Fraction(0)
    for gamma in enumerate_nc(len(letters)):
        term = Fraction(1)
        for blk in gamma.blocks:
            term *= mixed_cumulant(scenario, [letters[i - 1] for i in blk])
            if term == 0:
                break
        total += term
    return total


# one sweep revisits each sub-word from many words; the bound keeps sweeps
# over many scenarios from growing the memo
@lru_cache(maxsize=4096)
def _t_recursive(scenario: Scenario, letters: tuple[Letter, ...]) -> Fraction:
    rest = Fraction(0)
    for pi in enumerate_ncl(len(letters)):
        if len(pi.blocks) == 1:
            continue  # the full-block term carries the unknown
        term = Fraction(1)
        for blk in pi.blocks:
            # a one-letter word's t-coefficient is its expectation
            term *= (scenario.first_moment(letters[blk[0] - 1]) if len(blk) == 1 else
                     _t_recursive(scenario, tuple(letters[i - 1] for i in blk)))
            if term == 0:
                break
        if term != 0:
            for e in non_minimal_elements(pi):
                term *= scenario.first_moment(letters[e - 1])
        rest += term
    denom = prod(scenario.first_moment(l) for l in letters[1:])
    return (mixed_moment(scenario, letters) - rest) / denom


def mixed_tcoeff(scenario: Scenario, word) -> Fraction:
    """The multivariate t-coefficient of the word.

    Solved from the word's moment by subtracting every linked-partition
    term except the full block, then dividing by the product of the
    non-leading letters' expectations; block terms recurse into sub-words.
    The ``ncl`` cap bounds the word length.
    """
    letters = _letters(word)
    for l in letters:
        if scenario.first_moment(l) == 0:
            raise LetterNotInDomain(f"letter {l} has zero expectation")
    return _t_recursive(scenario, letters)


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


def product_moments(
    scenario: Scenario, x_id: str, y_id: str, order: int
) -> MomentSequence:
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
    failures: tuple[tuple[str, str, str], ...]  # (word, kind, value)

    @property
    def passed(self) -> bool:
        return not self.failures


def freeness_vanishing_suite(scenario: Scenario, max_length: int) -> VanishingReport:
    """Check that every mixed word has vanishing cumulant and t-coefficient.

    Sweeps all words of length up to ``max_length`` over the scenario's
    algebras that use at least two of them, and records any counterexample.
    """
    ids = sorted(scenario.algebras)
    checked = 0
    failures = []
    for n in range(2, max_length + 1):
        for combo in product(ids, repeat=n):
            if len(set(combo)) < 2:
                continue
            word = Word(tuple(Letter(a) for a in combo))
            checked += 1
            kappa = mixed_cumulant(scenario, word)
            if kappa != 0:
                failures.append((str(word), "cumulant", str(kappa)))
            t = mixed_tcoeff(scenario, word)
            if t != 0:
                failures.append((str(word), "t-coefficient", str(t)))
    return VanishingReport(checked, tuple(failures))
