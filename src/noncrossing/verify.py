"""Verification suites: identities checked over seeded corpora and fixtures.

Each suite returns report entries.  An entry is a checked identity
(:class:`~noncrossing.transforms.IdentityCheck`) tagged with its suite: the
identity, its parameters, and a witness that is present exactly when the
identity failed, reproducible from the seed and parameters.  The same
suites back the CLI ``verify`` command and the acceptance tests.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .errors import LimitExceeded, shorten_int
from .freeness import Scenario, freeness_vanishing_suite
from .limits import DEFAULT_LIMITS
from .partitions import (
    connected_components,
    enumerate_nc,
    enumerate_ncls,
    enumerate_ncs,
    exterior_blocks,
    iter_blocks,
    kreweras,
    non_minimal_elements,
    validate_nc,
    validate_ncl,
)
from .transforms import (
    CumulantSequence,
    IdentityCheck,
    MomentSequence,
    cumulant_via_classes,
    cumulant_via_trees,
    eval_bicolor,
    free_multiplicative,
    moments_to_cumulants,
    moments_to_tcoeffs,
    ncls_weight,
    verify_t_multiplicativity,
)
from .trees import (
    bicolor_from_ncls,
    enumerate_bicolor,
    enumerate_bicolor_elementary,
    enumerate_planar_trees,
)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# |NCL(n)| is the large Schroeder number S(n - 1); bicolor trees of n vertices: C(3n - 2, n - 1) / n
SCHROEDER = [sum(comb(m + k, m - k) * catalan(k) for k in range(m + 1)) for m in range(9)]
BICOLOR_COUNTS = [comb(3 * n - 2, n - 1) // n for n in range(1, 6)]

# the twelve-point linked fixture and the ten-point plain fixture
LINKED_12_BLOCKS = ((1, 4, 6, 9), (2, 3), (4, 5), (6, 7, 8), (10, 11), (11, 12))
PLAIN_10_BLOCKS = ((1, 4, 6), (2, 3), (5,), (7, 8), (9, 10))


class ReportEntry(IdentityCheck):
    """A checked identity tagged with the suite that checked it; its JSON
    form is the identity's plus ``"suite"``."""

    __slots__ = ("suite",)
    _fields = IdentityCheck._fields + __slots__

    def __init__(self, identity: str, parameters: dict, witness: dict | None = None, *,
                 suite: str):
        super().__init__(identity, parameters, witness)
        object.__setattr__(self, "suite", suite)

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "suite": self.suite}

    def text_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
        line = f"{status} [{self.suite}] {self.identity}"
        if params:
            line += f" ({params})"
        if self.witness is not None:
            line += f"  witness: {self.witness}"
        return line


def _entry(suite, identity, parameters, witness=None) -> ReportEntry:
    return ReportEntry(identity, dict(parameters), witness, suite=suite)


# ---------------------------------------------------------------------------
# seeded corpora


def seeded_moment_corpus(seed: int, count: int, order: int) -> list[MomentSequence]:
    """Deterministic random rational moment sequences with a nonzero first
    moment, built as reduced pairs; their ``values`` wait until read."""
    rng = random.Random(seed)
    nonzero = [x for x in range(-6, 7) if x != 0]
    out = []
    for _ in range(count):
        pairs = []
        for i in range(order):
            num = rng.choice(nonzero) if i == 0 else rng.randint(-6, 6)
            den = rng.randint(1, 4)
            g = gcd(num, den)
            pairs.append((num // g, den // g))
        out.append(MomentSequence._from_pairs(tuple(pairs)))
    return out


def catalan_moments(order: int) -> MomentSequence:
    """Moments whose cumulants are all one (the Catalan numbers)."""
    return MomentSequence(tuple(Fraction(catalan(n)) for n in range(1, order + 1)))


def shifted_catalan_moments(order: int) -> MomentSequence:
    """Moments with cumulants (2, 1, 0, 0, ...) (shifted Catalan numbers)."""
    return MomentSequence(tuple(Fraction(catalan(n + 1)) for n in range(1, order + 1)))


# ---------------------------------------------------------------------------
# suites


def _tally(members, ordered: bool) -> tuple[int, int | None]:
    """How many ``members`` there are and, when they are block tuples that
    should come in canonical order, the first index whose blocks do not sort
    strictly after the previous member's (None if there is none), in one
    pass."""
    if not ordered:
        return len(members), None
    count, prev, unordered = 0, (), None
    for count, blocks in enumerate(members, 1):
        if unordered is None and blocks <= prev:
            unordered = count - 1
        prev = blocks
    return count, unordered


def counts_suite(order=None, seed=7) -> list[ReportEntry]:
    """Family sizes against their closed forms, then the paper's fixtures.

    NC(n) and NCL(n) are counted as block tuples as they stream from
    :func:`iter_blocks`, so none of them is kept or built into a partition,
    and each member must sort strictly after the one before it: canonical
    order, so no member repeats.
    """
    # identity, largest n, enumerator per witness key, expected count, ordered
    table = (
        ("non-crossing partition count", 10, {"got": lambda n: iter_blocks(n, False)},
         catalan, True),
        ("linked partition count", 9, {"got": lambda n: iter_blocks(n, True)},
         lambda n: SCHROEDER[n - 1], True),
        ("planar tree count", 10, {"got": enumerate_planar_trees},
         lambda n: catalan(n - 1), False),
        ("one-level bicolor count", 8, {"got": enumerate_bicolor_elementary},
         lambda n: n, False),
        ("bicolor tree and split partition count", 5,
         {"trees": enumerate_bicolor, "partitions": enumerate_ncls},
         lambda n: BICOLOR_COUNTS[n - 1], False),
        ("parity-split partition count", 6, {"got": enumerate_ncs}, catalan, False),
    )
    entries = []
    for identity, top, enumerators, expected, ordered in table:
        for n in range(1, top + 1):
            got, late = {}, {}
            for key, enumerate_ in enumerators.items():
                got[key], unordered = _tally(enumerate_(n), ordered)
                if unordered is not None:
                    late = {"out_of_order": unordered}
            want = expected(n)
            passed = not late and all(v == want for v in got.values())
            entries.append(_entry("counts", identity, {"n": n},
                                  None if passed else {**got, "expected": want, **late}))

    fixture = validate_ncl(12, LINKED_12_BLOCKS)
    comp = connected_components(fixture)
    ext = exterior_blocks(fixture)
    smin = non_minimal_elements(fixture)
    ten = validate_nc(10, PLAIN_10_BLOCKS)
    # identity, n, computed value, expected value, witness form
    fixtures = (
        ("fixture connected components", 12, comp.blocks,
         ((1, 4, 5, 6, 7, 8, 9), (2, 3), (10, 11, 12)), str(comp)),
        ("fixture exterior blocks", 12, ext, ((1, 4, 6, 9), (10, 11)), str(ext)),
        ("fixture non-minimal positions", 12, smin, frozenset({3, 5, 7, 8, 9, 12}),
         sorted(smin)),
        ("fixture ten-point partition validates", 10, ten.blocks, PLAIN_10_BLOCKS,
         str(ten)),
    )
    for identity, n, got, want, shown in fixtures:
        entries.append(
            _entry("counts", identity, {"n": n}, None if got == want else {"got": shown}))
    return entries


def _interleaving(pi) -> tuple[int, int, int]:
    """``pi`` packed for the maximality scan, one slot of n + 1 bits per position e:
    ``gaps`` holds in slot e the positions that a block of ``pi`` puts in another
    gap than e (a <= e < b for consecutive a, b of the block, or the gap that wraps),
    ``bars`` holds in slot min B the mask of each block B, and ``cover`` holds in
    slot e the positions outside the block that holds e."""
    n = pi.n
    width = n + 1
    full = (1 << width) - 2
    ones = [0]  # ones[k]: a 1 at the bottom of every slot below k
    for e in range(n + 1):
        ones.append(ones[-1] | 1 << e * width)
    gaps = bars = cover = 0
    for blk in pi.blocks:
        mask = spread = 0
        for e in blk:
            mask |= 1 << e
            spread |= 1 << e * width
        lo, hi = blk[0], blk[-1]
        bars |= mask << lo * width
        cover |= (full - mask) * spread
        if lo < hi:
            # a one-slot value times a 1 at the bottom of some slots fills those slots
            gaps |= ((1 << hi) - (1 << lo)) * (ones[n + 1] - ones[hi] + ones[lo] - ones[1])
            for a, b in zip(blk, blk[1:]):
                gaps |= (full - (1 << b) + (1 << a)) * (ones[b] - ones[a])
    return gaps, bars, cover


def _compatible(gaps, bars) -> bool:
    """Does no block of ``bars`` cross a block of the partition of ``gaps``?"""
    return not gaps & bars


def _first_witness(fault, items) -> dict | None:
    """The first witness ``fault`` returns for one of ``items``, or None."""
    return next((w for w in map(fault, items) if w is not None), None)


def kreweras_suite(order, seed=7) -> list[ReportEntry]:
    def count_fault(gamma):
        kr = kreweras(gamma)
        if len(gamma.blocks) + len(kr.blocks) != gamma.n + 1:
            return {"partition": str(gamma), "complement": str(kr)}

    entries = [_entry("kreweras", "block count identity", {"n": n},
                      _first_witness(count_fault, enumerate_nc(n)))
               for n in range(1, order + 1)]
    for n in range(1, min(order, 6) + 1):
        packed = {sigma: _interleaving(sigma) for sigma in enumerate_nc(n)}

        def maximality_fault(item):
            gamma, (gaps, _, _) = item
            kr = kreweras(gamma)
            _, kr_bars, kr_cover = packed.get(kr) or _interleaving(kr)
            if not _compatible(gaps, kr_bars):
                return {"partition": str(gamma), "complement": str(kr),
                        "reason": "complement not compatible"}
            # a compatible partition with a block across two blocks of K(gamma)
            for other, (_, bars, _) in packed.items():
                if _compatible(gaps, bars) and bars & kr_cover:
                    return {"partition": str(gamma), "complement": str(kr),
                            "coarser": str(other)}
        entries.append(_entry("kreweras", "complement maximality", {"n": n},
                              _first_witness(maximality_fault, packed.items())))
    return entries


# how many random sequences prop21, eq5 and theorem draw from the seed
CORPUS_SIZE = 200


def _corpus_with_fixtures(seed, count, order):
    corpus = seeded_moment_corpus(seed, count, order)
    corpus.append(catalan_moments(order))
    corpus.append(shifted_catalan_moments(order))
    return corpus


def _pairs_with_fixtures(seed, count, order) -> list[tuple]:
    """The fixture pair, then the ``count`` seeded sequences two by two."""
    *seeded, catalan_seq, shifted_seq = _corpus_with_fixtures(seed, count, order)
    return [(catalan_seq, shifted_seq), *zip(seeded[0::2], seeded[1::2])]


@lru_cache(maxsize=1)  # prop21 and eq5 share one corpus
def _cumulant_route_targets(seed, top) -> tuple:
    corpus = _corpus_with_fixtures(seed, CORPUS_SIZE, top)
    return tuple((moments_to_cumulants(m), moments_to_tcoeffs(m)) for m in corpus)


def _cumulant_route_suite(suite, identity, cumulant_via, order, seed):
    """Check ``cumulant_via(t, n)`` against the cumulants of every corpus
    sequence; both transforms run once per sequence, outside the n loop.
    The comparison reads the cumulant's reduced pair, so a passing check
    builds no ``Fraction`` for it."""
    targets = _cumulant_route_targets(seed, order)
    entries = []
    for n in range(1, order + 1):
        def fault(indexed):
            idx, (kappa, t) = indexed
            got = cumulant_via(t, n)
            expected = kappa.pairs[n - 1]
            if (got.numerator, got.denominator) != expected:
                return {"sequence": idx, "got": str(got), "expected": str(Fraction(*expected))}
        entries.append(_entry(suite, identity, {"n": n, "sequences": len(targets)},
                              _first_witness(fault, enumerate(targets))))
    return entries


def prop21_suite(order, seed=7) -> list[ReportEntry]:
    return _cumulant_route_suite("prop21", "cumulant via connected linked classes",
                                 cumulant_via_classes, order, seed)


def eq5_suite(order, seed=7) -> list[ReportEntry]:
    return _cumulant_route_suite("eq5", "cumulant via planar tree sum",
                                 cumulant_via_trees, order, seed)


def prop22_suite(order, seed=7) -> list[ReportEntry]:
    x, y = seeded_moment_corpus(seed, 2, order)
    scenario = Scenario({"X": CumulantSequence(x.values), "Y": CumulantSequence(y.values)})
    report = freeness_vanishing_suite(scenario, order)
    return [
        _entry("prop22", "mixed words have vanishing cumulants and t-coefficients",
               {"max_length": order, "words": report.words_checked},
               report.failures[0] if report.failures else None)
    ]


def bridge_suite(order, seed=7) -> list[ReportEntry]:
    entries = []
    for pair_idx, (ma, mb) in enumerate(_pairs_with_fixtures(seed, 2, max(order, 2))):
        tx = moments_to_tcoeffs(ma)
        ty = moments_to_tcoeffs(mb)
        kx = moments_to_cumulants(ma)
        ky = moments_to_cumulants(mb)

        def fault(weighed):
            pi, weight = weighed
            via_tree = eval_bicolor(bicolor_from_ncls(pi), tx, ty)
            if weight != via_tree:
                return {"partition": str(pi), "weight": str(weight), "tree value": str(via_tree)}
        for n in range(1, order + 1):
            weighed = [(pi, ncls_weight(pi, tx, ty)) for pi in enumerate_ncls(n)]
            entries.append(_entry("bridge", "split-partition weight equals bicolor evaluation",
                                  {"n": n, "pair": pair_idx}, _first_witness(fault, weighed)))
            total = sum((weight for _, weight in weighed), Fraction(0))
            tree_total = sum((eval_bicolor(b, tx, ty) for b in enumerate_bicolor(n)), Fraction(0))
            km = free_multiplicative(kx, ky, n)
            entries.append(
                _entry("bridge", "aggregate split weights give the product cumulant",
                       {"n": n, "pair": pair_idx},
                       None if total == tree_total == km else
                       {"weights": str(total), "trees": str(tree_total), "cumulant": str(km)})
            )
    return entries


def theorem_suite(order, seed=7) -> list[ReportEntry]:
    def fault(check):
        if not check.passed:
            return {"identity": check.identity, "parameters": check.parameters, **check.witness}

    entries = []
    for pair_idx, (ma, mb) in enumerate(_pairs_with_fixtures(seed, CORPUS_SIZE, order)):
        report = verify_t_multiplicativity(ma, mb, order)
        entries.append(_entry("theorem", "t-series multiplicativity",
                              {"order": order, "pair": pair_idx, "checks": len(report.checks)},
                              _first_witness(fault, report.checks)))
    return entries


SUITES = {
    "counts": counts_suite,
    "kreweras": kreweras_suite,
    "prop21": prop21_suite,
    "prop22": prop22_suite,
    "eq5": eq5_suite,
    "bridge": bridge_suite,
    "theorem": theorem_suite,
}


# each suite's (default, maximum) order; counts reads none.  Four maxima are the
# caps their suites enumerate under.  kreweras and prop22 stay well below theirs
# (nc, ncl): NC(n) grows about fourfold per n, and mixed words double per letter.
ORDERS = {"kreweras": (8, 8), "prop21": (7, DEFAULT_LIMITS["trees"]), "prop22": (6, 6),
          "eq5": (7, DEFAULT_LIMITS["trees"]), "bridge": (5, DEFAULT_LIMITS["ncls"]),
          "theorem": (5, DEFAULT_LIMITS["theorem"])}


def run_suites(names, *, order=None, seed=7) -> list[ReportEntry]:
    """Run the named suites ('all' for every one) and return sorted entries.

    Each suite runs to ``order``, or else to its :data:`ORDERS` default.  An
    ``order`` below 1 raises :class:`ValueError` for every named suite, counts
    too, and one above the maximum of a named suite raises
    :class:`LimitExceeded`, before any suite runs.
    """
    if isinstance(names, str):
        names = list(SUITES) if names == "all" else [names]
    runs = []
    for name in names:
        default, top = ORDERS.get(name, (None, None))
        if order is not None and order < 1:
            raise ValueError(f"verify {name} needs an order of at least 1 "
                             f"(requested {shorten_int(order)})")
        if order is not None and top is not None and order > top:
            raise LimitExceeded(f"verify {name} runs up to order {top} "
                                f"(requested {shorten_int(order)})")
        runs.append((name, default if order is None else order))
    entries = [e for name, resolved in runs for e in SUITES[name](order=resolved, seed=seed)]
    entries.sort(key=lambda e: (e.suite, e.identity, str(sorted(e.parameters.items()))))
    return entries
