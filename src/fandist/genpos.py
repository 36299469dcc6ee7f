"""Strong general position, typicality, robustness, and sharpness instances.

A rational point sequence is in strong general position when, for every
tuple of pairwise disjoint nonempty index subsets, the codimension of the
intersection of the affine hulls equals the sum of their codimensions
(an empty intersection counts as codimension d+1, so emptiness is
accepted exactly when the sum exceeds d).  A configuration in K^(n-d-1)
is typical when its Gale-corresponding primal in K^d is in strong general
position.

The sharpness constructor samples a primal in ordinary general position
(every d+1 points affinely independent), takes its Gale dual, appends
the origin, and colors so every class but the first has r-1 points with
the origin in the last class.  Whether the coloring admits an
equidistributing fan is then decided exhaustively through the
proper-tuple correspondence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from fandist.errors import (
    PreconditionError,
    SizeGateExceeded,
    VerificationBug,
)
from fandist.exactnum import Cyclotomic, _eliminate_int
from fandist.feaslp import Flat, affine_hull, integer_grid
from fandist.galedual import (
    PointConfig,
    gale_transform,
    inverse_gale,
    lift_augment,
)
from fandist.tverberg import DEFAULT_LP_GATE, TverbergTuple, search_tuple
from fandist.kneser import threshold_caps

__all__ = [
    "CounterexampleInstance",
    "SgpReport",
    "build_counterexample",
    "check_sgp",
    "corresponding_primal",
    "found_equidistributing_tuple",
    "is_typical",
    "least_ell",
    "random_config",
    "robustness_check",
    "verify_no_equidistribution",
]

SGP_GATE = 10
# coordinate bits and sampling attempts of build_counterexample
_SAMPLE_BITS = 4
_SAMPLE_RETRIES = 100


@dataclass(frozen=True)
class SgpReport:
    """Verdict of a strong-general-position check.

    On failure the violating parts plus both sides of the codimension
    equation are recorded so the report re-verifies exactly.
    """

    verdict: bool
    n: int
    dim: int
    violating_parts: Optional[tuple] = None
    intersection_codim: Optional[int] = None
    codim_sum: Optional[int] = None
    reason: str = ""

    def to_json(self) -> dict:
        out = {"verdict": "pass" if self.verdict else "fail",
               "n": self.n, "dim": self.dim, "max_parts": self.n}
        if not self.verdict:
            out["violating_parts"] = [list(p) for p in
                                      (self.violating_parts or ())]
            out["intersection_codim"] = self.intersection_codim
            out["codim_sum"] = self.codim_sum
            out["reason"] = self.reason
        return out


def _ordinary_general_position(grid, d: int):
    """The first k = min(n, d+1) of the grid points that are affinely
    dependent (the rows [a_i | 1] have rank below k), or None."""
    k = min(len(grid), d + 1)
    for sub in combinations(range(len(grid)), k):
        if len(_eliminate_int([grid[i] + [1] for i in sub], d + 1)) < k:
            return sub
    return None


def check_sgp(config: PointConfig, gate: int = SGP_GATE) -> SgpReport:
    """Exhaustive strong-general-position check by exact elimination.

    Each part's affine hull is cut out by integer equation rows on the
    points' common-denominator grid (the helpers the Tverberg search
    prunes with); a tuple's intersection is their meet.

    Only parts of size at most d are enumerated: once ordinary general
    position holds, any larger part has full affine hull (codimension
    zero) and drops out of the equation.  Tuples of r = 2, 3, ... parts
    are walked in turn, parts in increasing minima, each level by one
    recursion that carries the meet of the parts chosen so far and their
    codimension sum.  A prefix of p >= 2 parts is itself a tuple that
    level p checked and passed, so a prefix whose sum exceeds d has an
    empty meet, as has every extension: that subtree is skipped.  Every
    part has codimension at least one, so at most d parts come before
    the last one, and the levels stop at r = d + 1.

    Ordinary general position is tested only to name a failure the
    recursion found.  A minimal affinely dependent set T of at most
    d + 1 points has each of its points b in the hull of P = T - {b},
    so the pair (P, {b}), with b the largest, meets in codimension d
    against a sum of 2d + 2 - |T| > d: level 2 finds a violation
    whenever ordinary general position fails, and the report is then
    that failure's, as if it had been tested first.
    """
    if config.conductor is not None:
        raise PreconditionError("strong general position is checked over Q")
    n, d = config.n, config.dim
    if n > gate:
        raise SizeGateExceeded(f"n={n} above the SGP gate {gate}")
    grid = integer_grid(config.points)
    hulls: dict[tuple, Flat] = {}

    def violation(avail, left, flat, csum, chosen):
        # the first violating tuple of the chosen parts and `left` more
        # from avail; one part alone has codim at most d, so the first
        # part is never pruned
        for size in range(1, d + 1):
            for part in combinations(avail, size):
                h = hulls.get(part)
                if h is None:
                    h = hulls[part] = affine_hull(grid, part)
                total = csum + h.codim
                if left == 1:
                    # the rank of the stacked rows is the meet's codim; a
                    # nonzero right-hand side past it makes the meet empty
                    M = flat.rows + h.rows
                    rank = len(_eliminate_int(M, d))
                    if any(row[d] for row in M[rank:]):
                        if total <= d:
                            return SgpReport(
                                False, n, d, chosen + (part,), d + 1, total,
                                "empty intersection below codim budget")
                    elif rank != total:
                        return SgpReport(False, n, d, chosen + (part,),
                                         rank, total,
                                         "codimension equation fails")
                elif total <= d:
                    rest = [i for i in avail if i > part[0] and i not in part]
                    found = violation(rest, left - 1, flat.meet(h), total,
                                      chosen + (part,))
                    if found is not None:
                        return found
        return None

    whole = Flat.from_rows([], d)
    for r in range(2, min(n, d + 1) + 1):
        found = violation(list(range(n)), r, whole, 0, ())
        if found is not None:
            break
    else:
        return SgpReport(True, n, d)
    bad = _ordinary_general_position(grid, d)
    if bad is not None:
        return SgpReport(False, n, d, (bad,), None, None,
                         "ordinary general position fails")
    return found


def corresponding_primal(config: PointConfig,
                         primal: Optional[PointConfig] = None) -> PointConfig:
    """The primal sequence a_1..a_n that the configuration corresponds to.

    Lift-and-augment followed by the inverse Gale transform, checked by
    its pair; the last primal point, the one paired with the augmented
    negated-sum point, is dropped from the returned primal.  ``primal``,
    when given, must be that inverse Gale transform (the primal of the
    pipeline's pair, ``gale_pair_from_dual(lift_augment(config)).primal``);
    it is then not computed again.
    """
    if primal is None:
        primal = inverse_gale(lift_augment(config))
    pts = primal.points[:config.n]
    return PointConfig(primal.dim, pts, primal.conductor, config.coloring)


def is_typical(config: PointConfig, gate: int = SGP_GATE, *,
               primal: Optional[PointConfig] = None) -> bool:
    """Whether the Gale-corresponding primal is in strong general position.

    ``primal`` is passed on to ``corresponding_primal``.
    """
    return check_sgp(corresponding_primal(config, primal), gate=gate).verdict


def robustness_check(report, r: int, d: int, is_complex: bool = False) -> bool:
    """Interior occupancy bound for typical inputs.

    Real fans must keep at least (r-1)(d+1)+1 points off-center; complex
    regular fans at least (r-1)(2d+1)+1.
    """
    bound = (r - 1) * ((2 * d if is_complex else d) + 1) + 1
    return report.robustness >= bound


def random_config(n: int, D: int, field="rational", bits: int = 8,
                  seed: int = 0, coloring=None) -> PointConfig:
    """Seeded random configuration, resampled until affinely spanning."""
    if n < D + 1:
        raise PreconditionError("need at least D+1 points to span")
    rng = random.Random(seed)
    conductor = None if field == "rational" else int(field)
    top = (1 << bits) - 1

    def rational():
        return Fraction(rng.randint(-top, top), rng.randint(1, top))

    def coordinate():
        if conductor is None:
            return rational()
        deg = len(Cyclotomic.from_rational(conductor, 0).coeffs)
        return Cyclotomic(conductor, [rational() for _ in range(deg)])

    for _ in range(200):
        pts = [[coordinate() for _ in range(D)] for _ in range(n)]
        cfg = PointConfig(D, pts, conductor, coloring)
        if cfg.affinely_spanning():
            return cfg
    raise PreconditionError("could not sample an affinely spanning set")


@dataclass(frozen=True)
class CounterexampleInstance:
    """Colored configuration built from the sharpness construction."""

    config: PointConfig               # n+ell points in R^(n-d-1), colored
    lifted_primal: PointConfig        # n+ell points in R^(d+ell)
    primal_sample: PointConfig        # the OGP points in R^(d+ell-1)
    r: int
    m: int
    d: int
    k: int
    ell: int
    seed: int

    def class_one(self) -> tuple[int, ...]:
        return self.config.class_indices(0)

    def to_json(self) -> dict:
        return {
            "params": {"r": self.r, "m": self.m, "d": self.d,
                       "k": self.k, "ell": self.ell, "seed": self.seed},
            "config": self.config.to_json(),
            "lifted_primal": self.lifted_primal.to_json(),
            "primal_sample": self.primal_sample.to_json(),
            # the sample exceeds SGP_GATE; the key stays for the pinned digests
            "sgp_verified": False,
        }


def least_ell(r: int, k: int) -> int:
    """The least ell with ell > 2 + k/(r-1), for r >= 2 and k >= 0: the
    rule ``build_counterexample`` enforces."""
    return 3 + k // (r - 1)


def build_counterexample(r: int, m: int, d: int, k: int, ell: int,
                         seed: int = 0) -> CounterexampleInstance:
    """Sharpness instance: Gale dual of a sample in ordinary general
    position plus the origin, colored so classes 2..m hold r-1 points
    each.

    Class one holds |X_1| = (r-1)(d+2)+k+1+ell points.  A proper r-tuple
    of points in general position in R^(d+ell-1) needs (r-1)(d+ell)+1
    points, and parts capped at floor(|X_1|/r) hold at most
    r*floor(|X_1|/r), so every capped tuple is excluded once
    r*floor(|X_1|/r) <= (r-1)(d+ell) (for r=3, m=2, d=1, k=0: ell >= 4).
    The enforced rule ell > 2 + k/(r-1) says exactly
    (r-1)(d+2)+k+1 <= (r-1)(d+ell): a class one of (r-1)(d+2)+k+1
    points, ell fewer than colored here, is too small for any proper
    tuple.  So the rule does not by itself make the instance
    non-equidistributable; below the count above the outcome depends on
    the sample.  Either way verify_no_equidistribution is the exact
    decision.

    The sample has (r-1)(d+m+1)+k+ell >= 11 points, above the strong
    general position gate, so only ordinary general position is checked.
    """
    if r < 3:
        raise PreconditionError("r must be at least 3")
    if m < 2:
        raise PreconditionError("m must be at least 2")
    if d < 1:
        raise PreconditionError("d must be at least 1")
    if not (0 <= k <= r - 1):
        raise PreconditionError("k must lie in 0..r-1")
    if ell < least_ell(r, k):
        raise PreconditionError("need ell > 2 + k/(r-1)")
    n = (r - 1) * (d + m + 1) + k + 1
    npts = n + ell - 1
    ambient = d + ell - 1

    for attempt in range(_SAMPLE_RETRIES):
        sample = random_config(npts, ambient, "rational", _SAMPLE_BITS,
                               seed * _SAMPLE_RETRIES + attempt)
        if _ordinary_general_position(integer_grid(sample.points),
                                      ambient) is None:
            break
    else:
        raise PreconditionError(
            "no sample in ordinary general position found")

    pair = gale_transform(sample)
    duals = list(pair.dual.points)          # npts points in R^(n-d-1)
    origin = tuple(Fraction(0) for _ in range(n - d - 1))
    xs = duals + [origin]

    total = n + ell
    colored = (m - 1) * (r - 1)
    coloring = [0] * (total - colored) + [c for c in range(1, m)
                                          for _ in range(r - 1)]
    if coloring[total - 1] != m - 1:
        raise VerificationBug("origin must sit in the last class")

    X = PointConfig(n - d - 1, xs, None, coloring)
    if not X.affinely_spanning():
        raise VerificationBug("dual-plus-origin fails to affinely span")

    one = Fraction(1)
    lifted_pts = [tuple(p) + (one,) for p in sample.points]
    lifted_pts.append(tuple(Fraction(0) for _ in range(d + ell)))
    lifted = PointConfig(d + ell, lifted_pts, None, coloring)
    if not lifted.affinely_spanning():
        raise VerificationBug("lifted primal fails to affinely span")

    return CounterexampleInstance(X, lifted, sample, r, m, d, k, ell, seed)


def found_equidistributing_tuple(instance: CounterexampleInstance,
                                 lp_gate: int = DEFAULT_LP_GATE
                                 ) -> Optional[TverbergTuple]:
    """The tuple certifying an equidistributing r-fan, or None if none exists.

    An equidistributing fan forces every point outside class one onto the
    center (classes 2..m are smaller than r), so the fan is linear and
    corresponds to a proper tuple of the lifted primal with parts inside
    the class-one index set, each part capped at floor(|X_1|/r) by the
    equidistribution condition on class one.  Conversely any such tuple
    yields an equidistributing fan, so the search decides the question.
    """
    r = instance.r
    c1 = instance.class_one()
    if len(c1) < r:
        return None  # cannot even form r nonempty parts
    cap = threshold_caps([len(c1)], r)[0]
    return search_tuple(instance.lifted_primal, r, allowed=c1,
                        max_part_size=cap, lp_gate=lp_gate)


def verify_no_equidistribution(instance: CounterexampleInstance,
                               lp_gate: int = DEFAULT_LP_GATE) -> bool:
    """Exhaustively decide whether no equidistributing r-fan exists.

    True exactly when ``found_equidistributing_tuple`` finds no tuple.
    """
    return found_equidistributing_tuple(instance, lp_gate) is None
