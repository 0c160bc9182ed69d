"""Enumeration and transform caps.

Every enumerator is capped so that a typo cannot trigger a combinatorial
explosion.  Caps can be overridden per call (``limit=``) and from the CLI.
The ``transform`` cap bounds the order of the four moment transforms, whose
exact solves take at least cubic time in the order; it has no override.
"""

from .errors import LimitExceeded

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
        raise ValueError(f"{kind} needs a size of at least 1 (requested {n})")
    cap = DEFAULT_LIMITS[kind] if limit is None else limit
    if n > cap:
        raise LimitExceeded(f"{kind} is capped at {cap} (requested {n})")
