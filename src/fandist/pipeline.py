"""Theorem-level drivers: lift, invert, search, build, slice, verify.

Every driver takes a configuration X of n points in K^D, derives
d = n - D - 1, lifts X to height one with the augmented negated-sum
point, recovers a primal by the inverse Gale transform, searches a
constrained proper tuple among the original n indices, carries it to a
linear fan, slices at height one, and verifies the result exactly, in
three steps: the lifted points (the augmented one included) under the
linear fan against the tuple's labels, then the points of X under the
slice against the same labels, point by point, then the mode's report
on X, from the classifications of the second step.  A run either
returns a fully verified result, returns None (no tuple), or raises:
guarantee violations and verification failures are bug signals, never
data errors.
Every search is sequential and exhaustive within its size gate, so no
result depends on the clock.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import gcd
from typing import Optional

from fandist.errors import (
    GuaranteeViolation,
    NotAffinelySpanning,
    PreconditionError,
    SizeGateExceeded,
    VerificationBug,
)
from fandist.fans import (
    VerificationReport,
    _verify_distribution,
    slice_project,
    verify_report,
)
# the fan builders past the public constructors' ``TverbergTuple.validate``:
# the search's solve has just re-verified the tuple's witness on the same
# points.  They keep the constructors' names here, which perfbench's tracer
# wraps.
from fandist.fans import _complex_fan as fan_from_tuple_complex
from fandist.fans import _real_fan as fan_from_tuple_real
from fandist.galedual import PointConfig, gale_pair_from_dual, lift_augment
from fandist.genpos import (
    SGP_GATE,
    build_counterexample,
    is_typical,
    least_ell,
    random_config,
    robustness_check,
    verify_no_equidistribution,
)
from fandist.kneser import (
    ColoringCertificate,
    SetFamily,
    m_eligible,
    prime_base,
    threshold_caps,
    verify_certificate,
)
from fandist.tverberg import (
    DEFAULT_LP_GATE,
    SearchConstraint,
    TverbergTuple,
    search_two_tuples,
    search_tuple,
)

__all__ = [
    "PipelineResult",
    "TwoFanResult",
    "bounds_experiment",
    "equidistribute",
    "pierce",
    "rainbow",
    "two_fans",
]

# coordinate bits of bounds_experiment's lower-bound configurations
_BOUNDS_BITS = 6


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(config: PointConfig) -> str:
    return hashlib.sha256(
        canonical_json(config.to_json()).encode()).hexdigest()


@dataclass(frozen=True)
class PipelineResult:
    """Verified outcome of a single-fan pipeline run.

    The affine fan classifies the original input points exactly as the
    tuple's parts.
    """

    mode: str
    input_digest: str
    r: int
    m: int
    d: int
    n: int
    ambient_dim: int
    field: object
    warnings: tuple
    guaranteed: bool
    tuple_: TverbergTuple
    linear_fan: object
    affine_fan: object
    report: VerificationReport
    robustness: int
    typical: Optional[bool]

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "input_digest": self.input_digest,
            "parameters": {
                "r": self.r, "m": self.m, "d": self.d, "n": self.n,
                "ambient_dim": self.ambient_dim, "field": self.field,
            },
            "warnings": list(self.warnings),
            "guaranteed": self.guaranteed,
            "tuple": self.tuple_.to_json(),
            "linear_fan": self.linear_fan.to_json(),
            "affine_fan": self.affine_fan.to_json(),
            "report": self.report.to_json(),
            "robustness": self.robustness,
            "typical": self.typical,
        }


@dataclass(frozen=True)
class TwoFanResult:
    """Verified pair of fans sharing one lifted dual."""

    mode: str
    input_digest: str
    r: int
    m: int
    d: int
    n: int
    warnings: tuple
    tuples: tuple
    affine_fans: tuple
    report: VerificationReport

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "input_digest": self.input_digest,
            "parameters": {"r": self.r, "m": self.m, "d": self.d,
                           "n": self.n},
            "warnings": list(self.warnings),
            "tuples": [t.to_json() for t in self.tuples],
            "affine_fans": [f.to_json() for f in self.affine_fans],
            "report": self.report.to_json(),
        }


def _prepare(X: PointConfig, r: int):
    """Lift, augment, invert; returns (X', pair, d, warnings)."""
    if not X.affinely_spanning():
        raise NotAffinelySpanning("input must affinely span its space")
    warnings: list[str] = []
    d = X.n - X.dim - 1
    if d < 1:
        raise PreconditionError("need n >= D + 2 so that d >= 1")
    if X.conductor is not None:
        if r < 2:
            raise PreconditionError("r must be at least 2")
        N = X.conductor
        target = 4 * r // gcd(4, r)
        target = target * N // gcd(target, N)
        if target != N:
            X = X.to_conductor(target)
            warnings.append(
                f"coordinates embedded into Q(zeta_{target}) for omega_{r}")
    pair = gale_pair_from_dual(lift_augment(X))
    return X, pair, d, warnings


def _fan_bound(r: int, d: int, m: int, is_complex: bool) -> int:
    """The single-fan guarantee bound on n: (r-1)(D + m + 1) + 1, with D
    = 2d for complex fans and d for real ones."""
    return (r - 1) * ((2 * d if is_complex else d) + m + 1) + 1


def _check_certificate(family: SetFamily, certificate: ColoringCertificate,
                       k: int, k_name: str) -> None:
    """Raise unless ``certificate`` is a valid chromatic certificate of
    ``family`` for the k-uniform Kneser hypergraph (k named ``k_name``)."""
    if certificate.family != family or certificate.r != k:
        raise PreconditionError(
            f"certificate must cover this family and {k_name}")
    ok, bad = verify_certificate(certificate)
    if not ok:
        raise PreconditionError(f"invalid chromatic certificate: {bad}")


def _build_fan(pair, X, tup):
    """(linear fan, its slice), the slice checked point by point on X.

    The fan constructor has checked every lifted point, the augmented
    one included, against the tuple's labels; here each point of X is
    classified once under the slice and must carry the same label:
    interior j for part j, center otherwise.  The mode's report on X
    reads those same classifications off the slice.  The tuple's witness
    is not re-verified here: the search's solve has just done so.  The
    fan layer's input checks fail here only on the pipeline's own tuple
    and pair, so they surface as VerificationBug.
    """
    try:
        if X.conductor is None:
            linear_fan = fan_from_tuple_real(pair, tup)
        else:
            linear_fan = fan_from_tuple_complex(pair, tup)
        affine_fan = slice_project(linear_fan)
    except PreconditionError as exc:
        raise VerificationBug(f"fan construction failed: {exc}") from exc
    _verify_distribution(affine_fan, X, tup)
    return linear_fan, affine_fan


def _single_fan(mode: str, theorem: str, plan, X: PointConfig, r: int, *,
                lp_gate: int, family=None) -> Optional[PipelineResult]:
    """Prepare, plan, search and finish one single-fan run.

    Real fans need r >= 3; that is checked once, before planning.  An
    exhausted search raises GuaranteeViolation when the plan says the
    ``theorem`` guarantees a tuple, and returns None otherwise.

    ``plan(X, d, is_complex, warnings)`` checks the mode's hypotheses on
    the prepared input, appends its warnings and returns
    (m, guaranteed, search constraint).
    """
    X, pair, d, warnings = _prepare(X, r)
    if X.conductor is None and r < 3:
        raise PreconditionError("real fans need r >= 3")
    m, guaranteed, constraint = plan(X, d, X.conductor is not None,
                                     warnings)
    tup = search_tuple(pair.primal, r, constraint, allowed=range(X.n),
                       lp_gate=lp_gate)
    if tup is None:
        if guaranteed:
            raise GuaranteeViolation(
                f"search exhausted although {theorem} theorem hypotheses "
                "hold guarantees a tuple")
        return None

    linear_fan, affine_fan = _build_fan(pair, X, tup)
    report = verify_report(affine_fan, X, mode, family=family)
    if not report.passes:
        raise VerificationBug(
            f"verification failed: {report.failures}")

    typical = None
    if X.conductor is None and X.n <= SGP_GATE:
        typical = is_typical(X, primal=pair.primal)
        if typical and not robustness_check(report, r, d, False):
            raise VerificationBug(
                "typical input violates the interior-occupancy bound")
    return PipelineResult(
        mode=mode, input_digest=_digest(X), r=r, m=m, d=d, n=X.n,
        ambient_dim=X.dim,
        field="rational" if X.conductor is None else
        {"cyclotomic": X.conductor},
        warnings=tuple(warnings), guaranteed=guaranteed, tuple_=tup,
        linear_fan=linear_fan, affine_fan=affine_fan, report=report,
        robustness=report.robustness, typical=typical)


def equidistribute(X: PointConfig, r: int, *,
                   lp_gate: int = DEFAULT_LP_GATE
                   ) -> Optional[PipelineResult]:
    """Equidistributing r-fan for an m-colored configuration, or None.

    Outside the theorem bounds the search may legitimately fail (None,
    after a warning); inside them, exhaustion raises a bug signal.
    """
    def plan(X, d, is_complex, warnings):
        sizes = X.class_sizes()
        m = len(sizes)
        bound = _fan_bound(r, d, m, is_complex)
        guaranteed = True
        if X.n < bound:
            warnings.append(
                f"n={X.n} below the guarantee bound {bound}; proceeding "
                "best-effort")
            guaranteed = False
        if prime_base(r) is None:
            warnings.append(
                f"r={r} is not a prime power; no guarantee applies")
            guaranteed = False
        caps = threshold_caps(sizes, r)
        return m, guaranteed, SearchConstraint.color_cap(
            caps, X.coloring or [0] * X.n)

    return _single_fan("equidistribute", "equidistribution", plan, X, r,
                       lp_gate=lp_gate)


def pierce(X: PointConfig, family: SetFamily,
           certificate: ColoringCertificate, r: int, *,
           lp_gate: int = DEFAULT_LP_GATE) -> Optional[PipelineResult]:
    """Distributing fan whose closed half-flats pierce every family member."""
    _check_certificate(family, certificate, r, "r")
    m = certificate.num_classes

    def plan(X, d, is_complex, warnings):
        if family.n != X.n:
            raise PreconditionError("family ground set must match the points")
        bound = _fan_bound(r, d, m, is_complex)
        guaranteed = prime_base(r) is not None and X.n >= bound
        if X.n < bound:
            warnings.append(f"n={X.n} below the guarantee bound {bound}")
        if prime_base(r) is None:
            warnings.append(
                f"r={r} is not a prime power; no guarantee applies")
        return m, guaranteed, SearchConstraint.family_avoid(family)

    return _single_fan("pierce", "piercing", plan, X, r, lp_gate=lp_gate,
                       family=family)


def rainbow(X: PointConfig, r: int, *, lp_gate: int = DEFAULT_LP_GATE
            ) -> Optional[PipelineResult]:
    """Rainbow-distributing fan: at most one point per class per interior."""
    if X.coloring is None:
        raise PreconditionError("rainbow mode needs a coloring")

    def plan(X, d, is_complex, warnings):
        sizes = X.class_sizes()
        m = len(sizes)
        if any(s < r for s in sizes):
            raise PreconditionError(
                f"every class needs at least r={r} points, sizes {sizes}")
        guaranteed = True
        expected_classes = (2 * d + 1) if is_complex else (d + 1)
        if m != expected_classes:
            warnings.append(
                f"{m} classes given, the theorem speaks of {expected_classes}")
            guaranteed = False
        if prime_base(r + 1) != r + 1:
            warnings.append(f"r+1={r + 1} is not prime; no guarantee applies")
            guaranteed = False
        if is_complex:
            stated = r * (2 * d + 1) - 1
            proved = r * (2 * d + 1)
            if X.n < stated:
                warnings.append(f"n={X.n} below the stated bound {stated}")
                guaranteed = False
            elif X.n < proved:
                warnings.append(
                    f"n={X.n} sits between the two published thresholds "
                    f"{stated} and {proved}: the guarantee is ambiguous there")
                guaranteed = False
        else:
            if X.n < r * (d + 1):
                warnings.append(f"n={X.n} below the bound {r * (d + 1)}")
                guaranteed = False
        if not is_complex and r < 4:
            warnings.append("r below the theorem's range")
            guaranteed = False
        return m, guaranteed, SearchConstraint.rainbow(X.coloring)

    return _single_fan("rainbow", "rainbow", plan, X, r, lp_gate=lp_gate)


def two_fans(X: PointConfig, r: int, *,
             certificate: Optional[ColoringCertificate] = None,
             lp_gate: int = DEFAULT_LP_GATE,
             time_budget: Optional[float] = None
             ) -> Optional[TwoFanResult]:
    """Two r-fans whose intersection distributes X with r^2-cell control.

    Every cell I_a ∩ J_b of the two tuples must pass one condition:
    without a certificate (equidistribute mode) each class is capped at
    its r^2-threshold (``threshold_caps``); with one (pierce mode) the
    cell holds no member of the certificate's family.  These
    preconditions are checked in order: for pierce the family on the
    points, r an odd prime, for pierce a valid certificate for r^2, and
    the digit condition (``m_eligible``) on m, the class count or the
    certificate's.  n below (r-1)(d+1) + m(r^2-1)/2 + 1 only warns.  The
    search (``search_two_tuples``) is exhaustive within ``lp_gate``
    feasibility checks, counted over all its streams as the single-fan
    drivers' search counts them; a tripped gate raises SizeGateExceeded.
    Emitted pairs always verify exactly.  Both fans are built and checked
    like the single-fan drivers' fan.
    ``time_budget`` is accepted and ignored: the benchmark's two-fan
    workload still passes it, and no search reads a clock.
    """
    X0 = X
    X, pair, d, warnings = _prepare(X, r)
    if certificate is None:
        family, mode = None, "equidistribute"
        sizes = X.class_sizes()
        m = len(sizes)
        check = SearchConstraint.color_cap(threshold_caps(sizes, r * r),
                                           X.coloring or [0] * X.n)
    else:
        family, mode = certificate.family, "pierce"
        if family.n != X.n:
            raise PreconditionError("family ground set must match the points")
        m = certificate.num_classes
        check = SearchConstraint.family_avoid(family)
    if r == 2 or prime_base(r) != r:
        raise PreconditionError("r must be an odd prime")
    if certificate is not None:
        _check_certificate(family, certificate, r * r, "r^2")
    eligible, digits = m_eligible(m, r)
    if not eligible:
        raise PreconditionError(
            f"m={m} fails the digit condition: base-{r} digits {digits}")
    bound = (r - 1) * (d + 1) + m * (r * r - 1) // 2 + 1
    if X.n < bound:
        warnings.append(f"n={X.n} below the guarantee bound {bound}")

    pairres = search_two_tuples(pair.primal, r, check, allowed=range(X.n),
                                lp_gate=lp_gate)
    if pairres is None:
        return None
    tup1, tup2 = pairres

    fans = [_build_fan(pair, X, tup)[1] for tup in pairres]
    report = verify_report(fans[0], X, "two-fan", other_fan=fans[1],
                           family=family)
    if not report.passes:
        raise VerificationBug(f"two-fan verification failed: "
                              f"{report.failures}")

    return TwoFanResult(
        mode=f"two-fan-{mode}", input_digest=_digest(X0), r=r, m=m, d=d,
        n=X.n, warnings=tuple(warnings), tuples=(tup1, tup2),
        affine_fans=tuple(fans), report=report)


def bounds_experiment(r: int, m: int, d_values, seeds, *,
                      lp_gate: int = DEFAULT_LP_GATE,
                      max_ell_extra: int = 1) -> list[dict]:
    """Bracket the maximum equidistributable size for each ambient d.

    For d = (r-2)s + t + (r-1)(m+1): the lower-bound runs equidistribute
    n = d+s+1 random points in R^d (success expected from the main
    theorem); the upper-bound side builds the sharpness instance at the
    same parameters and certifies non-equidistributability exhaustively,
    escalating ell by one when the minimal value fails to certify.
    """
    if r < 3:
        raise PreconditionError("bounds experiment needs r >= 3")
    if m < 1:
        raise PreconditionError("bounds experiment needs m >= 1")
    if min(d_values, default=1) < 1:
        raise PreconditionError("d must be at least 1")
    c = (r - 1) * (m + 1)
    rows = []
    for d in d_values:
        if d <= c:
            rows.append({"d": d, "skipped": "d must exceed (r-1)(m+1)"})
            continue
        s, t = divmod(d - c, r - 2)
        if s < 1:
            rows.append({"d": d, "skipped": "no valid (s, t) decomposition"})
            continue
        n = d + s + 1
        successes = 0
        for seed in seeds:
            coloring = [k % m for k in range(n)]
            X = random_config(n, d, "rational", _BOUNDS_BITS, seed,
                              coloring=sorted(coloring))
            res = equidistribute(X, r, lp_gate=lp_gate)
            if res is not None:
                successes += 1
        ell_min = least_ell(r, t)
        certified_at = None
        for ell in range(ell_min, ell_min + max_ell_extra + 1):
            inst = build_counterexample(r, m, s, t, ell,
                                        seed=seeds[0] if seeds else 0)
            try:
                if verify_no_equidistribution(inst, lp_gate=lp_gate):
                    certified_at = ell
                    break
            except SizeGateExceeded:
                break
        rows.append({
            "d": d, "s": s, "t": t, "n_lower": n,
            "lower_successes": successes, "lower_runs": len(list(seeds)),
            "upper_points": None if certified_at is None
            else n + certified_at,
            "certified_ell": certified_at,
        })
    return rows


# re-exported for perfbench's certify op and tracer; the CLI uses genpos
__all__ += ["build_counterexample", "verify_no_equidistribution"]
