"""Exception types, and the frozen base of the value classes, shared
across the package."""


class Frozen:
    """Base of the package's immutable value classes.

    A subclass keeps its fields in ``__slots__``, names them in order in
    ``_fields`` and sets them in its own ``__init__`` through
    ``object.__setattr__``.  Equality (only within one class), hash, copy,
    deepcopy and pickle go by one key, ``_key()``: the field tuple, unless a
    class states a smaller key and a ``_restore`` that rebuilds from it.  The
    repr is ``Name(field=value, ...)``, and assigning or deleting any name
    raises :class:`dataclasses.FrozenInstanceError`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    @classmethod
    def _restore(cls, values: tuple):
        """The instance with these field values, taken as they are."""
        obj = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(obj, name, value)
        return obj

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self._restore, (self._key(),)

    # ``dataclasses`` is imported only to raise: importing it at start-up
    # pulls in ``inspect``, ``ast`` and more, about 1 MiB of peak RSS and
    # 15 ms in every process, for an error no working call raises
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


_HEAD = 40  # the characters of a long quote that :func:`shorten` keeps


def shorten(text: str) -> str:
    """``text``, or its first ``_HEAD`` characters, ``…`` and its length when
    that is shorter, so that an error line quoting an input of any size
    stays one short line."""
    short = f"{text[:_HEAD]}… ({len(text)} characters)"
    return short if len(short) < len(text) else text


def shorten_int(n: int) -> str:
    """``shorten(str(n))``, also for an ``n`` with more digits than the
    interpreter writes as text: its head and length then come by arithmetic."""
    try:
        return shorten(str(n))
    except ValueError:
        sign, n = "-" * (n < 0), abs(n)
    digits = int((n.bit_length() - 1) * 0.30102) + 1  # at most the count: log10(2) > 0.30102
    while n >= 10 ** digits:
        digits += 1
    head = sign + str(n // 10 ** (digits - _HEAD))
    return f"{head[:_HEAD]}… ({len(sign) + digits} characters)"


class NonCrossingError(Exception):
    """Base class for every domain error raised by this package."""


class NotAPartition(NonCrossingError):
    """Blocks fail to partition the ground set (bad cover or overlap)."""


class NotACover(NonCrossingError):
    """Blocks of a linked partition do not cover the ground set."""


class Crossing(NonCrossingError):
    """Two blocks interleave.

    Carries the witness ``(i, k, p, q)`` with ``i < k < p < q`` where
    ``i, p`` lie in one block and ``k, q`` in another.
    """

    def __init__(self, witness, message=None):
        self.witness = tuple(witness)
        super().__init__(message or f"blocks cross at {self.witness}")


class BadLink(NonCrossingError):
    """A shared element violates the linking rules."""


class SizeMismatch(NonCrossingError):
    """Operands live on ground sets or orders of different sizes."""


class BlockStraddlesSet(NonCrossingError):
    """A block is neither inside nor disjoint from the restriction set."""


class OddGroundSet(NonCrossingError):
    """An operation on paired positions received an odd ground set."""


class NotConnected(NonCrossingError):
    """The linked partition has more than one connected component."""


class NotNclS(NonCrossingError):
    """The linked partition is not in the parity-split family."""


class LimitExceeded(NonCrossingError):
    """An enumeration request exceeds its configured cap."""


class ZeroFirstMoment(NonCrossingError):
    """The first moment vanishes, so t-coefficients are undefined."""


class ZeroT0(NonCrossingError):
    """A t-coefficient sequence with vanishing constant term."""


class OrderTooLow(NonCrossingError):
    """A sequence is too short for the requested computation."""


class LetterNotInDomain(NonCrossingError):
    """A word letter has zero expectation where a division is required, or
    its algebra is not in the scenario."""
