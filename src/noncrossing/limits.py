"""Enumeration and transform caps.

Every enumerator is capped so that a typo cannot trigger a combinatorial
explosion.  Caps can be overridden per call (``limit=``) and from the CLI.
The ``transform`` cap bounds the order of the four moment transforms, whose
exact solves take at least cubic time in the order; it has no override.
The interpreter's own limit on the digits of an integer read from or
written as text is reported as a usage error of the package's own, and
rational numbers are read from text by one grammar of the package's own.
"""

import re
import sys
from fractions import Fraction

from .errors import LimitExceeded, shorten, shorten_int

DEFAULT_LIMITS = {
    "nc": 12,
    "ncl": 9,
    "ncs": 12,
    "ncls": 5,
    "trees": 10,
    "bicolor": 7,
    "theorem": 6,
    "transform": 60,
}


def check_limit(kind: str, n: int, limit: int | None = None) -> None:
    """Raise :class:`ValueError` when ``n`` is below 1, whatever the cap, and
    :class:`LimitExceeded` when it exceeds the cap for ``kind``."""
    if n < 1:
        raise ValueError(f"{kind} needs a size of at least 1 (requested {shorten_int(n)})")
    cap = DEFAULT_LIMITS[kind] if limit is None else limit
    if n > cap:
        raise LimitExceeded(f"{kind} is capped at {shorten_int(cap)} (requested {shorten_int(n)})")


def too_many_digits(what: str) -> ValueError:
    """The usage error for ``what``, an integer with more decimal digits than
    the interpreter converts to or from text, in place of the interpreter's
    message, which names a setting of its own."""
    # only an interpreter with the limit raises the error this replaces
    return ValueError(f"{what} has more than {sys.get_int_max_str_digits()} digits, "
                      f"the limit on integers read or written as text")


# sign, integer part, then a denominator or a fractional part: ASCII only
_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+)|\.([0-9]+))?").fullmatch


def rational(value) -> Fraction:
    """``value`` as a ``Fraction``: a ``Fraction`` as it is, any other
    non-string through ``Fraction``, and a string of an optional sign and
    ASCII digits, then optionally ``/`` or ``.`` and more digits ("-2",
    "3/4", "0.125"), by a grammar of the package's own.

    The grammar is the same on every interpreter: ``Fraction`` accepts
    exponents (it would expand "1e3000000" into digits before any cap
    applies), and by version underscores, spaces and other scripts' digits.
    """
    if type(value) is Fraction:
        return value
    if not isinstance(value, str):
        return Fraction(value)
    match = _RATIONAL(value)
    if match is None:
        raise ValueError(f"{shorten(repr(value))} is not an integer, a/b or a plain decimal")
    sign, whole, over, frac = match.groups()
    try:
        num, den = int(whole), int(over or 1)
        if frac:
            den = 10 ** len(frac)
            num = num * den + int(frac)
    except ValueError:  # the digits are ASCII, so only the digit limit fails
        raise too_many_digits("an input coefficient") from None
    if not den:
        raise ValueError(f"zero denominator in {shorten(repr(value))}")
    return Fraction(-num if sign == "-" else num, den)
