"""Laws whose moments, free cumulants and t-coefficients are known in closed
form, as order-60 oracles for the transforms: a wrong equation would still
round-trip, but would miss these values.

Each family returns ``(moments, cumulants, tcoeffs)`` from rational
parameters, with ``None`` for a side that has no closed form here.  Refs:
Nica-Speicher, *Lectures on the Combinatorics of Free Probability*, Lectures
11-12 (free Poisson and semicircle); W. Mlotkowski, "Fuss-Catalan numbers in
noncommutative probability", Documenta Math. 15 (2010) (free
multiplicative powers of free Poisson).
"""

from fractions import Fraction as F
from math import comb, factorial, prod

from oracles import catalan

ORDER = 60


def binomial(x, j):
    """The generalized binomial coefficient C(x, j) for a rational x: with
    x = a/b, the product of a - i b over i < j, over b^j j!."""
    a, b = F(x).as_integer_ratio()
    return F(prod(a - i * b for i in range(j)), b**j * factorial(j))


def free_poisson(rate, jump, order=ORDER):
    """The free Poisson law: kappa_n = rate jump^n, m_n = jump^n sum_k
    N(n, k) rate^k (Narayana numbers) and T(x) = jump (rate + x)."""
    moments = [jump**n * sum(comb(n, k) * comb(n, k - 1) // n * rate**k for k in range(1, n + 1))
               for n in range(1, order + 1)]
    cumulants = [rate * jump**n for n in range(1, order + 1)]
    return moments, cumulants, [jump * rate, jump] + [0] * (order - 2)


def semicircle(mean, order=ORDER):
    """The semicircle law of variance 1: kappa = (mean, 1, 0, ...),
    m_n = sum_j C(n, 2j) Cat_j mean^(n-2j), and from M = R(z(1+M)) and
    M = z(1+M) T(M), T(x) = (mean + sqrt(mean^2 + 4x)) / 2."""
    moments = [sum(comb(n, 2 * j) * catalan(j) * mean ** (n - 2 * j) for j in range(n // 2 + 1))
               for n in range(1, order + 1)]
    tcoeffs = [mean] + [mean / 2 * binomial(F(1, 2), j) * (4 / mean**2) ** j
                        for j in range(1, order)]
    return moments, [mean, 1] + [0] * (order - 2), tcoeffs


def bernoulli(p, order=ORDER):
    """The law p delta_1 + (1 - p) delta_0: every moment is p, and from
    M = p z / (1 - z), T(x) = p + (1 - p) x / (1 + x)."""
    tcoeffs = [p] + [(-1) ** (j + 1) * (1 - p) for j in range(1, order)]
    return [p] * order, None, tcoeffs


def poisson_power(s, order=ORDER):
    """The free multiplicative power s of free Poisson(1), whose T is
    (1 + x)^s: t_j = C(s, j), m_n = C((s + 1) n, n - 1) / n and
    kappa_n = C(s n, n - 1) / n (Fuss-Catalan and Raney numbers)."""
    moments = [binomial((s + 1) * n, n - 1) / n for n in range(1, order + 1)]
    cumulants = [binomial(s * n, n - 1) / n for n in range(1, order + 1)]
    return moments, cumulants, [binomial(s, j) for j in range(order)]


POWERS = (F(1, 2), F(2, 3), F(5, 2), F(3))

LAWS = {
    "free-poisson": free_poisson(F(2, 3), F(5, 4)),
    "semicircle": semicircle(F(3, 2)),
    "bernoulli": bernoulli(F(1, 3)),
    **{f"poisson-power-{s}": poisson_power(s) for s in POWERS},
}
