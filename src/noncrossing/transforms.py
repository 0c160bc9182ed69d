"""Exact transforms between moments, free cumulants, and t-coefficients.

All arithmetic is exact rational, on integers.  A coefficient sequence
holds its coefficients as reduced (numerator, denominator) pairs, and its
``values`` tuple of ``Fraction``s is built only when it is read, so chained
transforms pass integers straight through.  The series solves run on
power-table rows that each share one reduced denominator: a row takes one
lcm, one plain indexed multiply-add loop per nonzero coefficient, and a gcd
division only when the gcd exceeds 1.  The known coefficients are integer
numerators over one running common denominator, so each solved coefficient
is one C-level integer dot with a row, reduced with one gcd.  The profile
sums run on reduced pairs, with one lcm and one gcd per sum.

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
The enumerators are imported only by the functions that read them, so the
series solves load no partition or tree module.

The cumulant generating series adds under free addition; the t-series
multiplies under free multiplication, which :func:`verify_t_multiplicativity`
checks coefficient by coefficient through two independent computation
routes.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add, mul

from .errors import (
    Frozen,
    NotNclS,
    OrderTooLow,
    SizeMismatch,
    ZeroFirstMoment,
    ZeroT0,
    shorten,
)
from .limits import check_limit, rational, too_many_digits


class _CoeffSequence(Frozen):
    """Exact coefficients of one kind; ``kind`` names it in error messages.

    ``pairs`` holds each coefficient once, as a reduced (numerator,
    denominator) pair of ints with denominator > 0, the form every solve and
    sum computes on.  ``values`` gives them as ``Fraction``s, built the first
    time it is read and then kept; a ``Fraction`` given to the constructor is
    kept, not built again.  Equality and hash go by kind and value, and an
    instance cannot be changed.
    """

    __slots__ = ("pairs", "_values")
    _fields = ("values",)
    kind: str

    def __init__(self, values):
        values = tuple(map(rational, values))
        self._init(tuple([(v.numerator, v.denominator) for v in values]), values)

    @classmethod
    def _from_pairs(cls, pairs: tuple):
        """The sequence of reduced pairs; its ``values`` wait until read."""
        seq = object.__new__(cls)
        seq._init(pairs, None)
        return seq

    _restore = _from_pairs

    def _init(self, pairs: tuple, values) -> None:
        if not pairs:
            raise OrderTooLow(f"a {self.kind} sequence needs at least one entry")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_values", values)

    @property
    def values(self) -> tuple[Fraction, ...]:
        # a race builds equal tuples, and either one may be kept
        values = self._values
        if values is None:
            values = tuple([Fraction(p, q) for p, q in self.pairs])
            object.__setattr__(self, "_values", values)
        return values

    @property
    def order(self) -> int:
        return len(self.pairs)

    def to_json_dict(self) -> dict:
        # str(Fraction(p, q)), with no Fraction built
        try:
            coeffs = [f"{p}/{q}" if q != 1 else str(p) for p, q in self.pairs]
        except ValueError:  # only an integer over the digit limit fails
            raise too_many_digits(f"a result {self.kind}") from None
        return {"order": self.order, "coeffs": coeffs}

    def _key(self) -> tuple:
        return self.pairs

    def __hash__(self) -> int:
        return hash((self.values,))


class MomentSequence(_CoeffSequence):
    """Moments m_1..m_N of a formal distribution."""

    __slots__ = ()
    kind = "moment"


class CumulantSequence(_CoeffSequence):
    """Free cumulants k_1..k_N."""

    __slots__ = ()
    kind = "cumulant"


class TCoeffSequence(_CoeffSequence):
    """t-coefficients t_0..t_{N-1}; the constant term must not vanish."""

    __slots__ = ()
    kind = "t-coefficient"

    def _init(self, pairs: tuple, values) -> None:
        super()._init(pairs, values)
        if pairs[0][0] == 0:
            raise ZeroT0("the constant t-coefficient must be nonzero")


# ---------------------------------------------------------------------------
# series solves


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

    A^j = A * A^(j-1), and A^(j-1) starts at z^(j-1), so row d adds up
    a_i times row d-i, shifted by one, over the nonzero a_i.
    """
    d = len(rows)
    if d == 0:
        rows.append(([1], 1))
        return
    terms = []
    den = 1
    for (p, q), (src, sden) in zip(a, reversed(rows)):  # a_i with row d-i
        if p:
            s = q * sden
            den = lcm(den, s)
            terms.append((p, s, src))
    nums = [0] * (d + 1)
    for p, s, src in terms:
        f = p * (den // s)
        k = 1
        for v in src:
            nums[k] += f * v
            k += 1
    g = gcd(den, *nums)
    rows.append((nums, den) if g == 1 else ([v // g for v in nums], den // g))


def _known(xs: list, xden: int, p: int, q: int) -> int:
    """Append p/q to the numerators ``xs`` over the common denominator
    ``xden`` and return the new common denominator: the old one, unless q
    does not divide it, in which case every numerator is rescaled to the
    lcm first."""
    f = q // gcd(xden, q)
    if f != 1:
        xs[:] = [v * f for v in xs]
        xden *= f
    xs.append(p * (xden // q))
    return xden


def _solve(pairs: tuple, from_moments: bool, tseries: bool) -> tuple:
    """Solve m_n = sum over i <= n of x_i w(n, i), for n = 1..order.

    Given the moments it returns the x's; given the x's, the moments; both
    go in and come out as reduced pairs, and no ``Fraction`` is built.  The
    weights of order n come from row len(a) of the power table of the
    series with coefficients ``a``, which grows by m_n after step n:
    integer numerators over the row's one reduced denominator.  Cumulants
    (M = R(z(1+M)), m_n = sum_k k_k [z^n](z(1+M))^k, ``a`` = z(1+M)) weigh
    by the row from index 1; t-coefficients (M = z(1+M) T(M), m_n = sum_j
    t_j [z^(n-1)](M^j + M^(j+1)), ``a`` = M) by row[j] + row[j+1], added
    at C level inside the dot.  Either way the diagonal weight, the only
    divisor, is the row's last entry.  The known x's are integer numerators
    over one running common denominator, rescaled only when a new x's
    denominator does not divide it, so each unknown costs one C-level
    integer dot with the row and one gcd.
    """
    check_limit("transform", len(pairs))
    out: list = []
    xs: list = []  # the known x's, numerators over xden
    xden = 1
    a: list = [] if tseries else [(1, 1)]
    rows: list = []
    for p, q in pairs:
        while len(rows) <= len(a):
            _power_row(rows, a)
        row, wden = rows[len(a)]
        if not from_moments:
            xden = _known(xs, xden, p, q)
        # x_1..x_(n-1) when solving for x_n, else x_1..x_n
        dot = sum(map(mul, xs, map(add, row, row[1:] + [0]) if tseries else row[1:]))
        if from_moments:
            # x_n = (m_n - dot / (xden wden)) / (w(n, n) / wden)
            num, den = p * xden * wden - q * dot, q * xden * row[-1]
        else:
            num, den = dot, xden * wden
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        out.append((num // g, den // g))
        if from_moments:
            xden = _known(xs, xden, *out[-1])
        a.append((p, q) if from_moments else out[-1])
    return tuple(out)


# ---------------------------------------------------------------------------
# moment <-> cumulant


def cumulants_to_moments(kappa: CumulantSequence) -> MomentSequence:
    """The moments whose free cumulants are ``kappa``."""
    return MomentSequence._from_pairs(_solve(kappa.pairs, from_moments=False, tseries=False))


def moments_to_cumulants(m: MomentSequence) -> CumulantSequence:
    """The free cumulants of ``m``; every diagonal weight is 1, so any
    moments have cumulants."""
    return CumulantSequence._from_pairs(_solve(m.pairs, from_moments=True, tseries=False))


# ---------------------------------------------------------------------------
# moment <-> t-coefficient


def tcoeffs_to_moments(t: TCoeffSequence) -> MomentSequence:
    """The moments whose t-coefficients are ``t``."""
    return MomentSequence._from_pairs(_solve(t.pairs, from_moments=False, tseries=True))


def moments_to_tcoeffs(m: MomentSequence) -> TCoeffSequence:
    """The t-coefficients of ``m``.

    Order n divides by m_1^(n-1), so the first moment must be nonzero.
    """
    if m.pairs[0][0] == 0:
        raise ZeroFirstMoment("t-coefficients need a nonzero first moment")
    return TCoeffSequence._from_pairs(_solve(m.pairs, from_moments=True, tseries=True))


# ---------------------------------------------------------------------------
# evaluations over partitions and trees


def _profile(objects, statistic) -> tuple:
    """The sum over ``objects`` as a polynomial: a tuple of (monomial,
    multiplicity) pairs.  ``statistic(obj)`` lists the indices of each
    sequence the object's weight multiplies, and a monomial sorts them into
    (index, exponent) pairs per sequence."""
    return tuple(Counter(
        tuple(tuple(sorted(Counter(indices).items())) for indices in statistic(obj))
        for obj in objects
    ).items())


def _evaluate(profile, *seqs) -> Fraction:
    """Sum of multiplicity times the product of seq.values[i] ** e, with one
    integer numerator and denominator per monomial.  The caller checks that
    each sequence covers every index of the profile."""
    tables = [seq.pairs for seq in seqs]
    terms = []
    for monomial, num in profile:
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
    once per call; a short one is refused naming its smallest missing index."""
    num = den = 1
    for seq, indices in zip(seqs, index_lists):
        if indices and max(indices) >= seq.order:
            missing = min(i for i in indices if i >= seq.order)
            raise OrderTooLow(f"need {seq.kind} of index {missing}")
        pairs = seq.pairs
        for i in indices:
            p, q = pairs[i]
            num *= p
            den *= q
    return Fraction(num, den)


def _linked_indices(blocks, n: int) -> list[int]:
    """The t-indices of the t-weight of linked ``blocks`` over n positions:
    |B| - 1 per block, and 0 per non-minimal position, of which there are
    n - (blocks), the minima being distinct."""
    return [len(b) - 1 for b in blocks] + [0] * (n - len(blocks))


@cache
def _class_profile(n: int) -> tuple:
    from .partitions import NCPartition, class_members

    members = class_members(NCPartition(n, (tuple(range(1, n + 1)),)))
    return _profile(members, lambda pi: (_linked_indices(pi.blocks, n),))


@cache
def _tree_profile(n: int) -> tuple:
    from .trees import PlanarTree, enumerate_planar_trees

    return _profile(enumerate_planar_trees(n), PlanarTree._t_indices)


@cache
def _kreweras_profile(n: int) -> tuple:
    from .partitions import enumerate_nc, kreweras

    return _profile(enumerate_nc(n), lambda gamma: (
        [len(b) - 1 for b in gamma.blocks], [len(b) - 1 for b in kreweras(gamma).blocks]))


@cache
def _bicolor_profile(n: int, elementary: bool) -> tuple:
    from .trees import BicolorPlanarTree, enumerate_bicolor, enumerate_bicolor_elementary

    trees = (enumerate_bicolor_elementary(n) if elementary
             else enumerate_bicolor(n, limit=n))
    return _profile(trees, BicolorPlanarTree._t_indices)


def cumulant_via_classes(t: TCoeffSequence, n: int) -> Fraction:
    """The n-th cumulant as a sum of t-weights over the connected class."""
    if n > t.order:
        raise OrderTooLow(f"need t-coefficients up to index {n - 1}")
    check_limit("trees", n)
    return _evaluate(_class_profile(n), t)


def eval_tree(tree: PlanarTree, t: TCoeffSequence) -> Fraction:
    """Product over the tree's elementary pieces of t_(child count)."""
    from .trees import PlanarTree

    if not isinstance(tree, PlanarTree):  # its indices fit the other kind's sequences
        raise TypeError(f"eval_tree takes a PlanarTree, not {type(tree).__name__}")
    return _product((t,), tree._t_indices())


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
    return CumulantSequence._from_pairs(
        tuple(_sum([x, y]) for x, y in zip(kx.pairs, ky.pairs)))


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
    from .trees import BicolorPlanarTree

    if not isinstance(tree, BicolorPlanarTree):  # its indices fit the other kind's sequences
        raise TypeError(f"eval_bicolor takes a BicolorPlanarTree, not {type(tree).__name__}")
    return _product((tx, ty), tree._t_indices())


def _ncls_indices(pi: NCLPartition) -> tuple:
    """The t-indices of the bicolor t-weight of a parity-split linked
    partition: the linked t-indices of its odd blocks over the n/2 odd
    positions, then those of its even blocks over the even ones."""
    return tuple(_linked_indices([b for b in pi.blocks if b[0] & 1 == odd], pi.n // 2)
                 for odd in (1, 0))


def ncls_weight(pi: NCLPartition, tx: TCoeffSequence, ty: TCoeffSequence) -> Fraction:
    """The bicolor t-weight of ``pi`` at :func:`_ncls_indices`: odd blocks in tx, even in ty."""
    from .partitions import is_ncls

    if not is_ncls(pi):
        raise NotNclS(f"{shorten(str(pi))} is not parity-split")
    return _product((tx, ty), _ncls_indices(pi))


def t_convolve(tx: TCoeffSequence, ty: TCoeffSequence) -> TCoeffSequence:
    """Cauchy product of the two t-series prefixes, on reduced pairs."""
    if tx.order != ty.order:
        raise SizeMismatch("t-coefficient sequences of different orders")
    x, y = tx.pairs, ty.pairs
    return TCoeffSequence._from_pairs(tuple(
        _dot(x[: i + 1], y[i::-1]) for i in range(len(x))))


# ---------------------------------------------------------------------------
# multiplicativity verifier


_set = object.__setattr__


class IdentityCheck(Frozen):
    """One checked identity: a name, its parameters, and a witness that is
    present exactly when the identity failed.  A failure cannot be stored
    without its witness, so it always says what went wrong."""

    __slots__ = _fields = ("identity", "parameters", "witness")

    def __init__(self, identity: str, parameters: dict, witness: dict | None = None):
        _set(self, "identity", identity)
        _set(self, "parameters", parameters)
        _set(self, "witness", witness)

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


class MultiplicativityReport(Frozen):
    """The checks of :func:`verify_t_multiplicativity` at one order."""

    __slots__ = _fields = ("order", "checks")

    def __init__(self, order: int, checks: tuple[IdentityCheck, ...] = ()):
        _set(self, "order", order)
        _set(self, "checks", checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "pass": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _check(identity: str, parameters: dict, lhs, rhs, fmt=str) -> IdentityCheck:
    # a passing check formats neither side
    return IdentityCheck(identity, parameters,
                         None if lhs == rhs else {"lhs": fmt(lhs), "rhs": fmt(rhs)})


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
    from .trees import PlanarTree

    check_limit("theorem", order, limit)
    if mx.pairs[0][0] == 0 or my.pairs[0][0] == 0:
        raise ZeroFirstMoment("both factors need a nonzero first moment")
    if mx.order < order or my.order < order:
        raise OrderTooLow(f"need moments up to order {order}")

    mx = MomentSequence._from_pairs(mx.pairs[:order])
    my = MomentSequence._from_pairs(my.pairs[:order])
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

    # reduced pairs are equal exactly when their values are; only a
    # witness builds Fractions
    checks = [_check("t-coefficient product rule", {"index": i}, routed, convolved,
                     lambda pair: str(Fraction(*pair)))
              for i, (routed, convolved) in enumerate(zip(t_routed.pairs, t_convolved.pairs))]
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
