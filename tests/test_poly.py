"""Oracles for the packed polynomials that verify's proofs rest on: the cycle
lemma's closed form, homogeneity (no exponent carries into the next field)
and sympy's expansion of the same profiles."""

from math import factorial, prod

import pytest

from noncrossing.poly import cumulant_polynomials, substitute, unpacked, variables
from noncrossing.transforms import (
    _bicolor_profile,
    _class_profile,
    _kreweras_profile,
    _tree_profile,
)
from noncrossing.verify import _theorem_identities


def _partition_count(n: int) -> int:
    """p(n), the number of partitions of n, counted part size by part size."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return ways[n]


def test_cumulant_coefficients_follow_the_cycle_lemma():
    # [t^e] kappa_n counts the plane trees of n vertices with e_i vertices of
    # i children: (1/n) n! / prod e_i!, over every e with sum e_i = n and
    # sum i e_i = n - 1, so kappa_n has p(n - 1) monomials; this reaches past
    # the trees cap with no enumeration
    checked = 0
    for n, kappa in enumerate(cumulant_polynomials(12), 1):
        assert len(kappa) == _partition_count(n - 1)
        for ((pairs,), c) in unpacked(kappa, 12):
            assert sum(e for _, e in pairs) == n
            assert sum(i * e for i, e in pairs) == n - 1
            assert c * prod(factorial(e) for _, e in pairs) == factorial(n - 1)
            checked += 1
    assert checked == 195


def _degrees(poly: dict, order: int) -> set[tuple[int, int, int]]:
    """Per monomial, its degree in alphabet 0, in alphabet 1 and past them."""
    return {tuple(sum(e for i, e in pairs if i // order == a) for a in (0, 1))
            + (sum(e for i, e in pairs if i >= 2 * order),)
            for (pairs,), _ in unpacked(poly, order)}


# every polynomial verify compares is homogeneous of degree n in each
# alphabet it uses; a carry into the next field would change a degree


@pytest.mark.parametrize("order", range(1, 11))
def test_cumulant_polynomials_are_homogeneous(order):
    for n, kappa in enumerate(cumulant_polynomials(order), 1):
        assert _degrees(kappa, order) == {(n, 0, 0)}, n


@pytest.mark.parametrize("order", range(1, 7))
def test_theorem_sides_are_homogeneous(order):
    for identity, n, series, total in _theorem_identities(order):
        for side in (series, total):
            assert _degrees(side, order) == {(n, n, 0)}, (identity, n)


def test_packed_sums_equal_sympy_expansions():
    # both sides of prop21, eq5 and the theorem's three identities, expanded
    # by sympy from the same profiles, against the unpacked polynomials
    import sympy

    order = 5
    tx, ty = sympy.symbols(f"tx:{order}"), sympy.symbols(f"ty:{order}")
    fields = tx + ty  # index a * order + i of an unpacked polynomial

    def expression(profile, *seqs):
        return sum(count * prod(seq[i] ** e for seq, pairs in zip(seqs, monomial)
                                for i, e in pairs) for monomial, count in profile)

    def terms(expr) -> dict:
        return {exps: int(c) for exps, c in sympy.Poly(expr, *fields).as_dict().items()}

    def packed_terms(poly) -> dict:
        return terms(expression(unpacked(poly, order), fields))

    t = variables(order, 0)
    for n, kappa in enumerate(cumulant_polynomials(order), 1):
        for profile in (_class_profile, _tree_profile):
            wanted = terms(expression(profile(n), tx))
            assert packed_terms(kappa) == packed_terms(substitute(profile(n), [t])) == wanted

    kx = [expression(_tree_profile(n), tx) for n in range(1, order + 1)]
    ky = [expression(_tree_profile(n), ty) for n in range(1, order + 1)]
    txy = [sum(tx[i] * ty[j - i] for i in range(j + 1)) for j in range(order)]
    sides = {}
    for n in range(1, order + 1):
        product = expression(_tree_profile(n), txy)
        sides["aggregate Kreweras identity", n] = (
            product, expression(_kreweras_profile(n), kx, ky))
        sides["aggregate tree identity", n] = (
            product, expression(_bicolor_profile(n, False), tx, ty))
        sides["one-level evaluation identity", n] = (
            txy[n - 1] * txy[0] ** (n - 1), expression(_bicolor_profile(n, True), tx, ty))
    identities = list(_theorem_identities(order))
    assert len(identities) == len(sides)
    for identity, n, series, total in identities:
        assert [packed_terms(series), packed_terms(total)] == [
            terms(side) for side in sides[identity, n]], (identity, n)
