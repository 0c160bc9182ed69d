"""Exact transforms between moments, free cumulants, and t-coefficients.

All arithmetic is exact rational.  Moments determine free cumulants by a
sum over non-crossing partitions, and t-coefficients by the analogous sum
over non-crossing linked partitions in which every block of size l
contributes the coefficient of index l-1 and every non-minimal position a
constant-term factor.  Both recursions solve for the top coefficient in
the single-block term, whose cofactor is a power of the constant term.

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
from math import prod
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
    enumerate_ncl,
    is_ncls,
    kreweras,
    non_minimal_elements,
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


def _fractions(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class _CoeffSequence:
    """Exact coefficients of one kind; ``kind`` names it in error messages."""

    values: tuple[Fraction, ...]
    kind: ClassVar[str]

    def __post_init__(self):
        object.__setattr__(self, "values", _fractions(self.values))
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


@dataclass(frozen=True)
class TruncatedSeries:
    """A power-series prefix with exact coefficients, z^0 .. z^order."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _fractions(self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _check_same_order(self, other: "TruncatedSeries") -> None:
        if len(self.coeffs) != len(other.coeffs):
            raise SizeMismatch("series truncated at different orders")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_same_order(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_same_order(other)
        n = len(self.coeffs)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n - i):
                out[i + j] += a * other.coeffs[j]
        return TruncatedSeries(tuple(out))

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [str(v) for v in self.coeffs]}


def r_series(kappa: CumulantSequence) -> TruncatedSeries:
    """The cumulant generating series, sum of k_n z^n from n = 1."""
    return TruncatedSeries((Fraction(0),) + kappa.values)


def t_series(t: TCoeffSequence) -> TruncatedSeries:
    """The t-coefficient generating series, sum of t_n z^n from n = 0."""
    return TruncatedSeries(t.values)


# ---------------------------------------------------------------------------
# partition profiles (cached exponent tables; value-identical to summing
# over the enumerations directly)


@cache
def _nc_profiles(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Multiset of block sizes -> multiplicity, over all of NC(n)."""
    counts = Counter(
        tuple(sorted(len(b) for b in g.blocks)) for g in enumerate_nc(n)
    )
    return tuple(sorted(counts.items()))


@cache
def _ncl_profiles(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Exponent vector of t_0..t_{n-1} -> multiplicity, over all of NCL(n)."""
    counts: Counter[tuple[int, ...]] = Counter()
    for pi in enumerate_ncl(n):
        exps = [0] * n
        for blk in pi.blocks:
            exps[len(blk) - 1] += 1
        exps[0] += n - len(pi.blocks)  # one t_0 per non-minimal position
        counts[tuple(exps)] += 1
    return tuple(sorted(counts.items()))


# ---------------------------------------------------------------------------
# moment <-> cumulant


def cumulants_to_moments(kappa: CumulantSequence) -> MomentSequence:
    """Evaluate the moment of each order as a sum over non-crossing
    partitions of products of block cumulants."""
    values = []
    for n in range(1, kappa.order + 1):
        total = Fraction(0)
        for sizes, mult in _nc_profiles(n):
            total += mult * prod(kappa.values[s - 1] for s in sizes)
        values.append(total)
    return MomentSequence(tuple(values))


def moments_to_cumulants(m: MomentSequence) -> CumulantSequence:
    """Solve for the cumulants order by order; the single-block term has
    coefficient one, so the recursion never divides."""
    kappa: list[Fraction] = []
    for n in range(1, m.order + 1):
        rest = Fraction(0)
        for sizes, mult in _nc_profiles(n):
            if sizes == (n,):
                continue
            rest += mult * prod(kappa[s - 1] for s in sizes)
        kappa.append(m.values[n - 1] - rest)
    return CumulantSequence(tuple(kappa))


# ---------------------------------------------------------------------------
# moment <-> t-coefficient


def tcoeffs_to_moments(t: TCoeffSequence) -> MomentSequence:
    """Evaluate each moment as a sum over non-crossing linked partitions."""
    values = []
    for n in range(1, t.order + 1):
        total = Fraction(0)
        for exps, mult in _ncl_profiles(n):
            total += mult * prod(t.values[i] ** e for i, e in enumerate(exps) if e)
        values.append(total)
    return MomentSequence(tuple(values))


def moments_to_tcoeffs(m: MomentSequence) -> TCoeffSequence:
    """Solve for the t-coefficients order by order.

    The single-block term of order n is t_{n-1} t_0^{n-1}, so each step
    divides by a power of t_0 = m_1, which must be nonzero.
    """
    if m.values[0] == 0:
        raise ZeroFirstMoment("t-coefficients need a nonzero first moment")
    t: list[Fraction] = [m.values[0]]
    for n in range(2, m.order + 1):
        rest = Fraction(0)
        for exps, mult in _ncl_profiles(n):
            if exps[n - 1]:
                continue  # the full-block term is the unknown
            rest += mult * prod(t[i] ** e for i, e in enumerate(exps) if e)
        t.append((m.values[n - 1] - rest) / t[0] ** (n - 1))
    return TCoeffSequence(tuple(t))


# ---------------------------------------------------------------------------
# evaluations over partitions and trees


def _t_partition_weight(pi: NCLPartition, t: TCoeffSequence) -> Fraction:
    factors = [t.values[len(blk) - 1] for blk in pi.blocks]
    factors.append(t.values[0] ** (pi.n - len(pi.blocks)))
    return prod(factors)


def cumulant_via_classes(t: TCoeffSequence, n: int) -> Fraction:
    """The n-th cumulant as a sum of t-weights over the connected class."""
    if n > t.order:
        raise OrderTooLow(f"need t-coefficients up to index {n - 1}")
    one_block = validate_nc(n, [list(range(1, n + 1))])
    return sum(
        (_t_partition_weight(pi, t) for pi in class_members(one_block)),
        Fraction(0),
    )


def eval_tree(tree: PlanarTree, t: TCoeffSequence) -> Fraction:
    """Product over the tree's elementary pieces of t_(child count)."""
    total = Fraction(1)
    for _, d in elementary_decomposition(tree):
        if d >= t.order:
            raise OrderTooLow(f"need t-coefficient of index {d}")
        total *= t.values[d]
    return total


def cumulant_via_trees(t: TCoeffSequence, n: int) -> Fraction:
    """The n-th cumulant as a sum of evaluations over planar trees."""
    if n > t.order:
        raise OrderTooLow(f"need t-coefficients up to index {n - 1}")
    return sum(
        (eval_tree(tree, t) for tree in enumerate_planar_trees(n)), Fraction(0)
    )


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
    total = Fraction(0)
    for gamma in enumerate_nc(n):
        left = prod(kx.values[len(b) - 1] for b in gamma.blocks)
        right = prod(ky.values[len(b) - 1] for b in kreweras(gamma).blocks)
        total += left * right
    return total


def eval_bicolor(
    tree: BicolorPlanarTree, tx: TCoeffSequence, ty: TCoeffSequence
) -> Fraction:
    """Product over vertices of t_k(first) t_{d-k}(second), where d counts
    children and k counts colour-1 children."""
    total = Fraction(1)

    def walk(node: BicolorPlanarTree):
        nonlocal total
        d = len(node.children)
        k = sum(1 for col, _ in node.children if col == 1)
        if k >= tx.order or d - k >= ty.order:
            raise OrderTooLow(f"need t-coefficients of indices {k} and {d - k}")
        total *= tx.values[k] * ty.values[d - k]
        for _, child in node.children:
            walk(child)

    walk(tree)
    return total


def ncls_weight(pi: NCLPartition, tx: TCoeffSequence, ty: TCoeffSequence) -> Fraction:
    """The bicolor t-weight of a parity-split linked partition.

    Odd blocks contribute first-argument coefficients, even blocks second-
    argument ones, and each non-minimal position a constant term of its
    parity's argument.
    """
    if not is_ncls(pi):
        raise NotNclS(f"{pi} is not parity-split")
    total = Fraction(1)
    for blk in pi.blocks:
        seq = tx if blk[0] % 2 else ty
        if len(blk) - 1 >= seq.order:
            raise OrderTooLow(f"need t-coefficient of index {len(blk) - 1}")
        total *= seq.values[len(blk) - 1]
    for e in non_minimal_elements(pi):
        total *= tx.values[0] if e % 2 else ty.values[0]
    return total


def t_convolve(tx: TCoeffSequence, ty: TCoeffSequence) -> TCoeffSequence:
    """Cauchy product of the two t-series prefixes."""
    if tx.order != ty.order:
        raise SizeMismatch("t-coefficient sequences of different orders")
    return TCoeffSequence((t_series(tx) * t_series(ty)).coeffs)


# ---------------------------------------------------------------------------
# multiplicativity verifier


@dataclass(frozen=True)
class IdentityCheck:
    """One verified identity: a name, its parameters, and both sides."""

    identity: str
    parameters: dict
    passed: bool
    lhs: str
    rhs: str

    def to_json_dict(self) -> dict:
        entry = {
            "identity": self.identity,
            "parameters": dict(self.parameters),
            "pass": self.passed,
        }
        if not self.passed:
            entry["witness"] = {"lhs": self.lhs, "rhs": self.rhs}
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
    return IdentityCheck(identity, parameters, lhs == rhs, str(lhs), str(rhs))


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
        rhs = sum(
            (eval_bicolor(b, tx, ty) for b in enumerate_bicolor_elementary(m)),
            Fraction(0),
        )
        checks.append(_check("one-level evaluation identity", {"order": m}, lhs, rhs))
    for n in range(1, order + 1):
        tree_sum = cumulant_via_trees(t_routed, n)
        bicolor_sum = sum(
            (eval_bicolor(b, tx, ty) for b in enumerate_bicolor(n, limit=max(n, 7))),
            Fraction(0),
        )
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
