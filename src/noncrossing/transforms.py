"""Exact transforms between moments, free cumulants, and t-coefficients.

All arithmetic is exact rational, on integers; ``Fraction``s appear only
at the API boundary, as the values that go in and come out.  The series
solves run on power-table rows that each share one reduced denominator:
a row's integer numerators are built with one lcm and reduced with one
gcd, and each solved coefficient is one integer dot over them, kept as a
reduced (numerator, denominator) pair.  The profile sums run on reduced
pairs, with one lcm and one gcd per sum.

The transforms solve the functional equations of the generating series
M = sum of m_n z^n, the R-series R = sum of k_n z^n and the t-series
T = sum of t_n z^n:

    M = R(z(1 + M))        (free cumulants)
    M = z(1 + M) T(M)      (t-coefficients)

Read off at z^n, each is a triangular system over the powers of z(1 + M)
or of M, solved one order at a time.  The sums over non-crossing and
non-crossing linked partitions that these equations encode are what the
evaluations below and the ``verify`` suites check against them.  Each such
sum is evaluated on a monomial profile: the objects of one size counted
once by the coefficient powers they multiply.  The profiles come from the
enumerations, never from the equations, so the two routes stay independent.
The weight of one tree or partition is a direct product, with no profile.

The cumulant generating series adds under free addition; the t-series
multiplies under free multiplication, which :func:`verify_t_multiplicativity`
checks coefficient by coefficient through two independent computation
routes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import ClassVar

from .errors import (
    NotNclS,
    OrderTooLow,
    SizeMismatch,
    ZeroFirstMoment,
    ZeroT0,
)
from .limits import check_limit
from .partitions import (
    NCLPartition,
    class_members,
    enumerate_nc,
    is_ncls,
    kreweras,
    validate_nc,
)
from .trees import (
    BicolorPlanarTree,
    PlanarTree,
    elementary_decomposition,
    enumerate_bicolor,
    enumerate_bicolor_elementary,
    enumerate_planar_trees,
)


@dataclass(frozen=True)
class _CoeffSequence:
    """Exact coefficients of one kind; ``kind`` names it in error messages."""

    values: tuple[Fraction, ...]
    kind: ClassVar[str]

    def __post_init__(self):
        # a value that is already a Fraction is kept, not built again
        object.__setattr__(self, "values", tuple(
            v if type(v) is Fraction else Fraction(v) for v in self.values))
        if not self.values:
            raise OrderTooLow(f"a {self.kind} sequence needs at least one entry")

    @property
    def order(self) -> int:
        return len(self.values)

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [str(v) for v in self.values]}


@dataclass(frozen=True)
class MomentSequence(_CoeffSequence):
    """Moments m_1..m_N of a formal distribution."""

    kind = "moment"


@dataclass(frozen=True)
class CumulantSequence(_CoeffSequence):
    """Free cumulants k_1..k_N."""

    kind = "cumulant"


@dataclass(frozen=True)
class TCoeffSequence(_CoeffSequence):
    """t-coefficients t_0..t_{N-1}; the constant term must not vanish."""

    kind = "t-coefficient"

    def __post_init__(self):
        super().__post_init__()
        if self.values[0] == 0:
            raise ZeroT0("the constant t-coefficient must be nonzero")


# ---------------------------------------------------------------------------
# series solves


def _pairs(values) -> list[tuple[int, int]]:
    """The reduced (numerator, denominator) pairs of ``Fraction`` values."""
    return [(v.numerator, v.denominator) for v in values]


def _sum(terms) -> tuple[int, int]:
    """The reduced pair of a sum of (numerator, denominator) terms: one lcm
    over the denominators, integer multiply-adds, one gcd.  The profile
    sums (:func:`_evaluate`), :func:`t_convolve` and ``freeness`` use it."""
    # a list: lcm(*generator) left 1.5 MiB more peak RSS on CPython 3.11
    den = lcm(*[q for _, q in terms])
    num = sum(p * (den // q) for p, q in terms)
    g = gcd(num, den)
    return num // g, den // g


def _dot(xs, ys) -> tuple[int, int]:
    """The reduced pair of the dot product of two lists of pairs, through
    :func:`_sum`; :func:`t_convolve` and ``freeness`` use it."""
    return _sum([(p * r, q * s) for (p, q), (r, s) in zip(xs, ys) if p and r])


def _power_row(rows: list, a: list) -> None:
    """Append row d = len(rows) of the power table of A = a_1 z + a_2 z^2 + ...

    Row d is one (nums, den) pair with [z^d] A^j = nums[j] / den for
    j = 0..d (the coefficient is 0 for j > d), in lowest terms as a whole:
    den > 0 and gcd(den, *nums) == 1.  The a_i are reduced pairs.  Row d
    reads only a_1..a_d, so a solve may extend ``a`` between rows.
    """
    d = len(rows)
    if d == 0:
        rows.append(([1], 1))
        return
    # A^j = A * A^(j-1), and A^(j-1) starts at z^(j-1): entry j sums
    # a_i [z^(d-i)] A^(j-1) over i, each a_i times row d-i shifted by one
    terms = [(p, q * rows[d - i][1], rows[d - i][0])
             for i, (p, q) in enumerate(a[:d], 1) if p]
    den = lcm(*[s for _, s, _ in terms])
    nums = [0] * (d + 1)
    for p, s, src in terms:
        f = p * (den // s)
        for k, v in enumerate(src):
            if v:
                nums[k + 1] += f * v
    g = gcd(den, *nums)
    rows.append(([v // g for v in nums], den // g))


def _solve(values, from_moments: bool, a: list, weights) -> tuple:
    """Solve m_n = sum over i <= n of x_i w(n, i), for n = 1..order.

    Given the moments it returns the x's; given the x's, the moments.  The
    weights of order n are ``weights(row)`` for row len(a) of the power
    table of the series with coefficients ``a``, which grows by m_n after
    step n: integer numerators over the row's one reduced denominator.
    Only the diagonal weight w(n, n) is ever a divisor.  Each unknown costs
    one lcm over the x denominators it meets, one integer dot with the
    weight numerators and one gcd; the x's and m's are reduced pairs, and
    ``Fraction``s are built only for the returned coefficients.
    """
    check_limit("transform", len(values))
    pairs = _pairs(values)
    x, m = ([], pairs) if from_moments else (pairs, [])
    rows: list = []
    for n in range(1, len(pairs) + 1):
        while len(rows) <= len(a):
            _power_row(rows, a)
        w, wden = weights(rows[len(a)])
        # the known x's: x_1..x_(n-1) when solving for x_n, else x_1..x_n
        known = x[: n - 1] if from_moments else x[:n]
        xden = lcm(*[q for _, q in known])
        dot = sum(p * (xden // q) * wi for (p, q), wi in zip(known, w) if p)
        if from_moments:
            # x_n = (m_n - dot / (xden wden)) / (w(n, n) / wden)
            p, q = m[n - 1]
            num, den = p * xden * wden - q * dot, q * xden * w[n - 1]
        else:
            num, den = dot, xden * wden
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        (x if from_moments else m).append((num // g, den // g))
        a.append(m[n - 1])
    return tuple(Fraction(p, q) for p, q in (x if from_moments else m))


def _cumulant_solve(values, from_moments: bool) -> tuple:
    # M = R(z(1+M)): m_n = sum_k k_k [z^n](z(1+M))^k, and [z^n](z(1+M))^n = 1
    return _solve(values, from_moments, [(1, 1)], lambda row: (row[0][1:], row[1]))


def _tcoeff_solve(values, from_moments: bool) -> tuple:
    # M = z(1+M) T(M): m_n = sum_j t_j [z^(n-1)](M^j + M^(j+1)), whose
    # j = n-1 term is t_(n-1) m_1^(n-1)
    return _solve(values, from_moments, [], lambda row: (
        [r + s for r, s in zip(row[0], row[0][1:] + [0])], row[1]))


# ---------------------------------------------------------------------------
# moment <-> cumulant


def cumulants_to_moments(kappa: CumulantSequence) -> MomentSequence:
    """The moments whose free cumulants are ``kappa``."""
    return MomentSequence(_cumulant_solve(kappa.values, from_moments=False))


def moments_to_cumulants(m: MomentSequence) -> CumulantSequence:
    """The free cumulants of ``m``; every diagonal weight is 1, so any
    moments have cumulants."""
    return CumulantSequence(_cumulant_solve(m.values, from_moments=True))


# ---------------------------------------------------------------------------
# moment <-> t-coefficient


def tcoeffs_to_moments(t: TCoeffSequence) -> MomentSequence:
    """The moments whose t-coefficients are ``t``."""
    return MomentSequence(_tcoeff_solve(t.values, from_moments=False))


def moments_to_tcoeffs(m: MomentSequence) -> TCoeffSequence:
    """The t-coefficients of ``m``.

    Order n divides by m_1^(n-1), so the first moment must be nonzero.
    """
    if m.values[0] == 0:
        raise ZeroFirstMoment("t-coefficients need a nonzero first moment")
    return TCoeffSequence(_tcoeff_solve(m.values, from_moments=True))


# ---------------------------------------------------------------------------
# evaluations over partitions and trees


def _profile(objects, statistic) -> tuple:
    """(monomial, multiplicity) pairs, and per sequence the smallest order
    that covers every index: ``statistic(obj)`` lists the indices of each
    sequence the object's weight multiplies, and a monomial sorts them into
    (index, exponent) pairs per sequence."""
    monomials = tuple(Counter(
        tuple(tuple(sorted(Counter(indices).items())) for indices in statistic(obj))
        for obj in objects
    ).items())
    needs = tuple(max((powers[-1][0] + 1 for powers in column if powers), default=0)
                  for column in zip(*(m for m, _ in monomials)))
    return monomials, needs


def _order_too_low(seq, indices) -> OrderTooLow:
    """The error of a ``seq`` too short for some of ``indices``: it names the
    smallest index out of range."""
    return OrderTooLow(f"need {seq.kind} of index {min(i for i in indices if i >= seq.order)}")


def _evaluate(profile, *seqs) -> Fraction:
    """Sum of multiplicity times the product of seq.values[i] ** e, with one
    integer numerator and denominator per monomial.  Each sequence's length
    is checked once, against the order the profile needs."""
    monomials, needs = profile
    for k, (seq, need) in enumerate(zip(seqs, needs)):
        if need > seq.order:
            raise _order_too_low(seq, [i for m, _ in monomials for i, _ in m[k]])
    tables = [_pairs(seq.values) for seq in seqs]
    terms = []
    for monomial, num in monomials:
        den = 1
        for pairs, powers in zip(tables, monomial):
            for i, e in powers:
                p, q = pairs[i]
                num *= p ** e
                den *= q ** e
        terms.append((num, den))
    return Fraction(*_sum(terms))


def _product(seqs, index_lists) -> Fraction:
    """The product of seq.values[i] over the indices listed per sequence: the
    weight of one object, with no profile.  Each sequence's length is checked
    once per call."""
    num = den = 1
    for seq, indices in zip(seqs, index_lists):
        if indices and max(indices) >= seq.order:
            raise _order_too_low(seq, indices)
        values = seq.values
        for i in indices:
            v = values[i]
            num *= v.numerator
            den *= v.denominator
    return Fraction(num, den)


def _linked_indices(pi: NCLPartition) -> list[int]:
    """The t-indices of a linked partition's t-weight: |B| - 1 per block, and
    0 per non-minimal position, of which there are n - (blocks), the minima
    being distinct."""
    return [len(b) - 1 for b in pi.blocks] + [0] * (pi.n - len(pi.blocks))


def _tree_indices(tree: PlanarTree) -> tuple:
    return ([d for _, d in elementary_decomposition(tree)],)


def _bicolor_indices(tree: BicolorPlanarTree) -> tuple:
    return tuple(zip(*_colour_counts(tree)))


@cache
def _class_profile(n: int) -> tuple:
    members = class_members(validate_nc(n, [list(range(1, n + 1))]))
    return _profile(members, lambda pi: (_linked_indices(pi),))


@cache
def _tree_profile(n: int) -> tuple:
    return _profile(enumerate_planar_trees(n), _tree_indices)


@cache
def _kreweras_profile(n: int) -> tuple:
    return _profile(enumerate_nc(n), lambda gamma: (
        [len(b) - 1 for b in gamma.blocks], [len(b) - 1 for b in kreweras(gamma).blocks]))


@cache
def _bicolor_profile(n: int, elementary: bool) -> tuple:
    trees = (enumerate_bicolor_elementary(n) if elementary
             else enumerate_bicolor(n, limit=max(n, 7)))
    return _profile(trees, _bicolor_indices)


def cumulant_via_classes(t: TCoeffSequence, n: int) -> Fraction:
    """The n-th cumulant as a sum of t-weights over the connected class."""
    if n > t.order:
        raise OrderTooLow(f"need t-coefficients up to index {n - 1}")
    check_limit("trees", n)
    return _evaluate(_class_profile(n), t)


def eval_tree(tree: PlanarTree, t: TCoeffSequence) -> Fraction:
    """Product over the tree's elementary pieces of t_(child count)."""
    return _product((t,), _tree_indices(tree))


def cumulant_via_trees(t: TCoeffSequence, n: int) -> Fraction:
    """The n-th cumulant as a sum of evaluations over planar trees."""
    if n > t.order:
        raise OrderTooLow(f"need t-coefficients up to index {n - 1}")
    return _evaluate(_tree_profile(n), t)


# ---------------------------------------------------------------------------
# free convolutions


def free_additive(kx: CumulantSequence, ky: CumulantSequence) -> CumulantSequence:
    """Cumulants add freely: the sum's cumulants are the pointwise sums."""
    if kx.order != ky.order:
        raise SizeMismatch("cumulant sequences of different orders")
    return CumulantSequence(tuple(a + b for a, b in zip(kx.values, ky.values)))


def free_multiplicative(kx: CumulantSequence, ky: CumulantSequence, n: int) -> Fraction:
    """The n-th cumulant of a free product.

    Sums, over non-crossing partitions, the product of the first factor's
    cumulants over the partition blocks with the second factor's cumulants
    over the blocks of its Kreweras complement.
    """
    if n > kx.order or n > ky.order:
        raise OrderTooLow(f"need cumulants up to order {n}")
    return _evaluate(_kreweras_profile(n), kx, ky)


def eval_bicolor(
    tree: BicolorPlanarTree, tx: TCoeffSequence, ty: TCoeffSequence
) -> Fraction:
    """Product over vertices of t_k(first) t_{d-k}(second), where d counts
    children and k counts colour-1 children."""
    return _product((tx, ty), _bicolor_indices(tree))


def _colour_counts(tree: BicolorPlanarTree):
    """(colour-1, colour-0) child counts per vertex, in preorder."""
    k = sum(col for col, _ in tree.children)
    yield k, len(tree.children) - k
    for _, child in tree.children:
        yield from _colour_counts(child)


def ncls_weight(pi: NCLPartition, tx: TCoeffSequence, ty: TCoeffSequence) -> Fraction:
    """The bicolor t-weight of a parity-split linked partition.

    Odd blocks contribute first-argument coefficients, even blocks second-
    argument ones, and each non-minimal position a constant term of its
    parity's argument.
    """
    if not is_ncls(pi):
        raise NotNclS(f"{pi} is not parity-split")
    odd, even = [], []
    for b in pi.blocks:
        (odd if b[0] & 1 else even).append(len(b) - 1)
    # the minima are distinct: each parity's n/2 positions less its block
    # minima are its non-minimal positions, each weighing t_0
    half = pi.n // 2
    return _product((tx, ty), (odd + [0] * (half - len(odd)), even + [0] * (half - len(even))))


def t_convolve(tx: TCoeffSequence, ty: TCoeffSequence) -> TCoeffSequence:
    """Cauchy product of the two t-series prefixes, on reduced pairs."""
    if tx.order != ty.order:
        raise SizeMismatch("t-coefficient sequences of different orders")
    x, y = _pairs(tx.values), _pairs(ty.values)
    return TCoeffSequence(tuple(
        Fraction(*_dot(x[: i + 1], y[i::-1])) for i in range(len(x))))


# ---------------------------------------------------------------------------
# multiplicativity verifier


@dataclass(frozen=True)
class IdentityCheck:
    """One checked identity: a name, its parameters, and a witness that is
    present exactly when the identity failed.  A failure cannot be stored
    without its witness, so it always says what went wrong."""

    identity: str
    parameters: dict
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_json_dict(self) -> dict:
        entry = {
            "identity": self.identity,
            "parameters": dict(self.parameters),
            "pass": self.passed,
        }
        if self.witness is not None:
            entry["witness"] = dict(self.witness)
        return entry


@dataclass(frozen=True)
class MultiplicativityReport:
    order: int
    checks: tuple[IdentityCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "pass": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _check(identity: str, parameters: dict, lhs, rhs) -> IdentityCheck:
    # a passing check formats neither side
    return IdentityCheck(identity, parameters,
                         None if lhs == rhs else {"lhs": str(lhs), "rhs": str(rhs)})


def verify_t_multiplicativity(
    mx: MomentSequence, my: MomentSequence, order: int, *, limit: int | None = None
) -> MultiplicativityReport:
    """Check that the t-series of a free product is the product of t-series.

    Route one computes the product's cumulants from the Kreweras sum, turns
    them into moments, and solves for t-coefficients.  Route two convolves
    the factors' t-coefficients directly.  The report also checks, per
    order, the one-level evaluation identity (an elementary tree evaluated
    in the product equals the sum over one-level bicolor trees) and the
    aggregate identity equating the tree sum, the bicolor tree sum, and the
    Kreweras cumulant sum.
    """
    check_limit("theorem", order, limit)
    if mx.values[0] == 0 or my.values[0] == 0:
        raise ZeroFirstMoment("both factors need a nonzero first moment")
    if mx.order < order or my.order < order:
        raise OrderTooLow(f"need moments up to order {order}")

    mx = MomentSequence(mx.values[:order])
    my = MomentSequence(my.values[:order])
    kx = moments_to_cumulants(mx)
    ky = moments_to_cumulants(my)
    tx = moments_to_tcoeffs(mx)
    ty = moments_to_tcoeffs(my)

    kappa_xy = CumulantSequence(
        tuple(free_multiplicative(kx, ky, n) for n in range(1, order + 1))
    )
    m_xy = cumulants_to_moments(kappa_xy)
    t_routed = moments_to_tcoeffs(m_xy)  # via the product's moments
    t_convolved = t_convolve(tx, ty)  # via the series product

    checks = []
    for i in range(order):
        checks.append(
            _check(
                "t-coefficient product rule",
                {"index": i},
                t_routed.values[i],
                t_convolved.values[i],
            )
        )
    for m in range(1, order + 1):
        elementary = PlanarTree((PlanarTree(),) * (m - 1))
        lhs = eval_tree(elementary, t_routed)
        rhs = _evaluate(_bicolor_profile(m, elementary=True), tx, ty)
        checks.append(_check("one-level evaluation identity", {"order": m}, lhs, rhs))
    for n in range(1, order + 1):
        tree_sum = cumulant_via_trees(t_routed, n)
        bicolor_sum = _evaluate(_bicolor_profile(n, elementary=False), tx, ty)
        checks.append(
            _check("aggregate tree identity", {"order": n}, tree_sum, bicolor_sum)
        )
        checks.append(
            _check(
                "aggregate Kreweras identity",
                {"order": n},
                bicolor_sum,
                kappa_xy.values[n - 1],
            )
        )
    return MultiplicativityReport(order, tuple(checks))
