"""Integer polynomials with packed monomials: the rings Z[t] and Z[tx, ty]
that ``verify`` proves its identities in.

A polynomial is a dict from a packed monomial to its nonzero integer
coefficient.  Variables come in alphabets of ``order`` each, and variable i
of alphabet a owns field a * order + i of the key, ``order.bit_length()``
bits wide, holding its exponent; so the product of two monomials is the sum
of their keys.  A field holds up to 2 ** order.bit_length() - 1 >= order,
and every polynomial built here is of degree at most order in each
alphabet, so no exponent reaches the next field and no sum of keys carries.

Only this module knows that layout: callers name variables by (order,
alphabet) and read a polynomial back as a profile (``transforms._profile``).
It is stdlib only and imports nothing from the package.
"""

from __future__ import annotations

from functools import lru_cache


def _width(order: int) -> int:
    """The bits of one field: enough for every exponent up to ``order``."""
    return order.bit_length()


def mul_into(out: dict, p: dict, q: dict, sign: int = 1) -> None:
    """Add ``sign`` times the product of the polynomials p and q to ``out``."""
    for a, x in p.items():
        for b, y in q.items():
            out[a + b] = out.get(a + b, 0) + sign * x * y


def _times(p: dict, q: dict) -> dict:
    out: dict = {}
    mul_into(out, p, q)
    return out


def _poly_row(rows: list, a: list) -> None:
    """Append row d = len(rows) of the power table of A = a[0] z + a[1] z^2
    + ...: row[j] = [z^d] A^j for j = 0..d, reading a[0..d-1] only."""
    d = len(rows)
    row = [{} for _ in range(d + 1)]
    if d == 0:
        row[0][0] = 1
    for ai, src in zip(a, reversed(rows)):  # a_i with row d - i
        for j, poly in enumerate(src, 1):
            mul_into(row[j], ai, poly)
    rows.append(row)


@lru_cache(maxsize=1)  # prop21 and eq5 share one solve
def cumulant_polynomials(order: int) -> tuple[dict, ...]:
    """kappa_1..kappa_order as polynomials in t_0..t_(order-1), the variables
    of alphabet 0, with their nonzero integer coefficients.  They solve the
    equations of the numeric transforms, M = z(1 + M) T(M) for the moments,
    then M = R(z(1 + M)) for the cumulants; neither divides, so the solve
    stays in Z[t] and holds for every t."""
    t = variables(order, 0)
    moments, rows = [], []
    for n in range(1, order + 1):  # m_n = sum_j t_j [z^(n-1)](M^j + M^(j+1))
        _poly_row(rows, moments)
        row, m_n = rows[n - 1], {}
        for j in range(n):
            for power in row[j:j + 2]:
                mul_into(m_n, t[j], power)
        moments.append(m_n)
    a, rows, kappa = [{0: 1}, *moments], [], []
    for n in range(1, order + 1):  # kappa_n = m_n - sum_(k<n) kappa_k [z^n] (z(1+M))^k
        while len(rows) <= n:
            _poly_row(rows, a)
        k_n = dict(moments[n - 1])
        for k, k_k in enumerate(kappa, 1):
            mul_into(k_n, k_k, rows[n][k], -1)
        kappa.append({key: c for key, c in k_n.items() if c})
    return tuple(kappa)


def variables(order: int, alphabet: int) -> list[dict]:
    """The ``order`` variables of ``alphabet`` as polynomials."""
    width = _width(order)
    return [{1 << width * (alphabet * order + i): 1} for i in range(order)]


def moved(poly: dict, order: int) -> dict:
    """``poly`` with each variable moved one alphabet over: variable i of
    alphabet a becomes variable i of alphabet a + 1."""
    shift = _width(order) * order
    return {key << shift: c for key, c in poly.items()}


def _powers(key: int, order: int) -> list[tuple[int, int]]:
    """The (field, exponent) pairs of a packed monomial, in field order."""
    width = _width(order)
    mask = (1 << width) - 1
    return [(i, e) for i in range(-(-key.bit_length() // width))
            if (e := key >> width * i & mask)]


def unpacked(poly: dict, order: int) -> tuple:
    """A polynomial as a one-sequence profile (``transforms._profile``):
    variable i of alphabet a is index a * order + i of the sequence."""
    return tuple(((_powers(key, order),), c) for key, c in poly.items())


def substitute(profile, seqs) -> dict:
    """A profile's sum (``transforms._evaluate``) at sequences of
    polynomials: per monomial, its multiplicity times the product of
    seqs[k][i] ** e, each power built once."""
    powers: dict = {}
    total: dict = {}
    for monomial, count in profile:
        product = {0: count}
        for k, (seq, pairs) in enumerate(zip(seqs, monomial)):
            for i, e in pairs:
                power = powers.get((k, i, e))
                if power is None:
                    power = seq[i]
                    for _ in range(e - 1):
                        power = _times(power, seq[i])
                    powers[k, i, e] = power
                product = _times(product, power)
        for key, c in product.items():
            total[key] = total.get(key, 0) + c
    return {key: c for key, c in total.items() if c}


def monomial_text(key: int, order: int, alphabets: tuple) -> str:
    """A packed monomial as text, ``alphabets[a]`` naming alphabet a."""
    return "*".join(f"{alphabets[i // order]}{i % order}" + (f"^{e}" if e > 1 else "")
                    for i, e in _powers(key, order))
