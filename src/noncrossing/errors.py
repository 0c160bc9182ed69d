"""Exception types shared across the package."""


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
