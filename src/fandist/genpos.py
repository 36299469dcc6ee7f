"""Strong general position, typicality, robustness, and sharpness instances.

A rational point sequence is in strong general position when, for every
tuple of pairwise disjoint nonempty index subsets, the codimension of the
intersection of the affine hulls equals the sum of their codimensions
(an empty intersection counts as codimension d+1, so emptiness is
accepted exactly when the sum exceeds d).  A configuration in K^(n-d-1)
is typical when its Gale-corresponding primal in K^d is in strong general
position.

The sharpness constructor samples a strong-general-position primal, takes
its Gale dual, appends the origin, and colors so every class but the
first has r-1 points with the origin in the last class.  Whether the
coloring admits an equidistributing fan is then decided exhaustively
through the proper-tuple correspondence.
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
from fandist.exactnum import Cyclotomic, ExactMatrix
from fandist.feaslp import Flat, affine_hull, integer_grid
from fandist.galedual import (
    PointConfig,
    gale_transform,
    inverse_gale,
    lift_augment,
)
from fandist.tverberg import TverbergTuple, search_tuple
from fandist.kneser import threshold_caps

__all__ = [
    "CounterexampleInstance",
    "SgpReport",
    "build_counterexample",
    "check_sgp",
    "corresponding_primal",
    "found_equidistributing_tuple",
    "is_typical",
    "random_config",
    "robustness_check",
    "verify_no_equidistribution",
]

SGP_GATE = 10


@dataclass(frozen=True)
class SgpReport:
    """Verdict of a strong-general-position check.

    On failure the violating parts plus both sides of the codimension
    equation are recorded so the report re-verifies exactly.
    """

    verdict: bool
    n: int
    dim: int
    max_parts: int
    violating_parts: Optional[tuple] = None
    intersection_codim: Optional[int] = None
    codim_sum: Optional[int] = None
    reason: str = ""

    def to_json(self) -> dict:
        out = {"verdict": "pass" if self.verdict else "fail",
               "n": self.n, "dim": self.dim, "max_parts": self.max_parts}
        if not self.verdict:
            out["violating_parts"] = [list(p) for p in
                                      (self.violating_parts or ())]
            out["intersection_codim"] = self.intersection_codim
            out["codim_sum"] = self.codim_sum
            out["reason"] = self.reason
        return out


def _affine_constraints(config: PointConfig, part) -> list[tuple]:
    """Rows (u, u0) with u.a_i + u0 = 0 for all i in the part.

    These are the equations of ``affine_hull`` (found on the integer
    grid), with u0 taken at the part's first point in the original
    coordinates, for re-checking a report without the grid.
    """
    hull = affine_hull(integer_grid(config.points), part)
    first = config.points[part[0]]
    return [tuple(row[:-1]) + (-sum(u * x for u, x in zip(row, first)),)
            for row in hull.rows]


def _ordinary_general_position(config: PointConfig):
    d, n = config.dim, config.n
    k = min(n, d + 1)
    for sub in combinations(range(n), k):
        rows = [list(config.points[i]) + [Fraction(1)] for i in sub]
        if ExactMatrix(rows).rank() != k:
            return sub
    return None


def check_sgp(config: PointConfig, max_parts: Optional[int] = None,
              gate: int = SGP_GATE) -> SgpReport:
    """Exhaustive strong-general-position check by exact elimination.

    Each part's affine hull is cut out by integer equation rows on the
    points' common-denominator grid (the helpers the Tverberg search
    prunes with); a tuple's intersection is their meet.

    Only parts of size at most d are enumerated: once ordinary general
    position holds, any larger part has full affine hull (codimension
    zero) and drops out of the equation.
    """
    if config.conductor is not None:
        raise PreconditionError("strong general position is checked over Q")
    n, d = config.n, config.dim
    if n > gate:
        raise SizeGateExceeded(f"n={n} above the SGP gate {gate}")
    if max_parts is None:
        max_parts = n
    bad = _ordinary_general_position(config)
    if bad is not None:
        return SgpReport(False, n, d, max_parts, (tuple(bad),), None, None,
                         "ordinary general position fails")

    grid = integer_grid(config.points)
    hulls: dict[tuple, Flat] = {}

    def hull(part):
        if part not in hulls:
            hulls[part] = affine_hull(grid, part)
        return hulls[part]

    def tuples_of_parts(avail, r, prev_min):
        if r == 0:
            yield ()
            return
        for size in range(1, d + 1):
            for part in combinations(avail, size):
                if prev_min is not None and part[0] <= prev_min:
                    continue
                rest = [i for i in avail if i not in part]
                for others in tuples_of_parts(rest, r - 1, part[0]):
                    yield (part,) + others

    for r in range(2, max_parts + 1):
        if r > n:
            break
        for parts in tuples_of_parts(list(range(n)), r, None):
            part_hulls = [hull(part) for part in parts]
            csum = sum(h.codim for h in part_hulls)
            if not csum:
                continue  # all parts full-dimensional: intersection is K^d
            flat = part_hulls[0]
            for h in part_hulls[1:]:
                flat = flat.meet(h)
                if flat is None:
                    break
            if flat is not None:
                if flat.codim != csum:
                    return SgpReport(False, n, d, max_parts, parts,
                                     flat.codim, csum,
                                     "codimension equation fails")
            else:
                if csum <= d:
                    return SgpReport(False, n, d, max_parts, parts,
                                     d + 1, csum,
                                     "empty intersection below codim budget")
    return SgpReport(True, n, d, max_parts)


def corresponding_primal(config: PointConfig) -> PointConfig:
    """The primal sequence a_1..a_n that the configuration corresponds to.

    Lift-and-augment followed by the inverse Gale transform; the basis
    exchange pins the all-ones vector, and the appended average point is
    dropped from the returned primal.
    """
    lifted = lift_augment(config)
    primal = inverse_gale(lifted, verify=False)
    pts = primal.points[:config.n]
    return PointConfig(primal.dim, pts, primal.conductor, config.coloring)


def is_typical(config: PointConfig, gate: int = SGP_GATE) -> bool:
    """Whether the Gale-corresponding primal is in strong general position."""
    primal = corresponding_primal(config)
    return check_sgp(primal, gate=gate).verdict


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
    primal_sample: PointConfig        # the SGP points in R^(d+ell-1)
    r: int
    m: int
    d: int
    k: int
    ell: int
    seed: int
    sgp_verified: bool

    def class_one(self) -> tuple[int, ...]:
        return self.config.class_indices(0)

    def to_json(self) -> dict:
        return {
            "params": {"r": self.r, "m": self.m, "d": self.d,
                       "k": self.k, "ell": self.ell, "seed": self.seed},
            "config": self.config.to_json(),
            "lifted_primal": self.lifted_primal.to_json(),
            "primal_sample": self.primal_sample.to_json(),
            "sgp_verified": self.sgp_verified,
        }


def build_counterexample(r: int, m: int, d: int, k: int, ell: int,
                         seed: int = 0, bits: int = 4,
                         sgp_gate: int = SGP_GATE,
                         retries: int = 100) -> CounterexampleInstance:
    """Sharpness instance: Gale dual of a strong-general-position sample
    plus the origin, colored so classes 2..m hold r-1 points each.

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

    When the sample size exceeds the SGP gate, only ordinary general
    position is verified and the instance carries sgp_verified=False.
    With r=3, m=2, d=1 that is every ell >= 3 under the default gate.
    """
    if r < 3:
        raise PreconditionError("r must be at least 3")
    if m < 2:
        raise PreconditionError("m must be at least 2")
    if not (0 <= k <= r - 1):
        raise PreconditionError("k must lie in 0..r-1")
    if (ell - 2) * (r - 1) <= k:
        raise PreconditionError("need ell > 2 + k/(r-1)")
    n = (r - 1) * (d + m + 1) + k + 1
    npts = n + ell - 1
    ambient = d + ell - 1
    if npts < ambient + 1:
        raise PreconditionError("parameters leave too few points to span")

    sample = None
    verified = False
    for attempt in range(retries):
        cand = random_config(npts, ambient, "rational", bits,
                             seed * retries + attempt)
        if npts <= sgp_gate:
            if check_sgp(cand, gate=sgp_gate).verdict:
                sample, verified = cand, True
                break
        else:
            if _ordinary_general_position(cand) is None:
                sample, verified = cand, False
                break
    if sample is None:
        raise PreconditionError(
            "no strong-general-position sample found (degenerate parameters)")

    pair = gale_transform(sample)
    duals = list(pair.dual.points)          # npts points in R^(n-d-1)
    origin = tuple(Fraction(0) for _ in range(n - d - 1))
    xs = duals + [origin]

    total = n + ell
    colored = (m - 1) * (r - 1)
    coloring = [0] * total
    tail = list(range(total - colored, total - 1)) + [total - 1]
    pos = 0
    for cls in range(1, m):
        for _ in range(r - 1):
            coloring[tail[pos]] = cls
            pos += 1
    if coloring[total - 1] != m - 1:
        raise VerificationBug("origin must sit in the last class")

    X = PointConfig(n - d - 1, xs, None, coloring)
    if not X.affinely_spanning():
        raise PreconditionError("dual-plus-origin fails to affinely span")

    one = Fraction(1)
    lifted_pts = [tuple(p) + (one,) for p in sample.points]
    lifted_pts.append(tuple(Fraction(0) for _ in range(d + ell)))
    lifted = PointConfig(d + ell, lifted_pts, None, coloring)
    if not lifted.affinely_spanning():
        raise VerificationBug("lifted primal fails to affinely span")

    return CounterexampleInstance(X, lifted, sample, r, m, d, k, ell,
                                  seed, verified)


def found_equidistributing_tuple(instance: CounterexampleInstance,
                                 lp_gate: int = 10_000_000
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
                               lp_gate: int = 10_000_000) -> bool:
    """Exhaustively decide whether no equidistributing r-fan exists.

    True exactly when ``found_equidistributing_tuple`` finds no tuple.
    """
    return found_equidistributing_tuple(instance, lp_gate) is None
