"""Fans, fans from proper tuples, slicing, classification, verification.

A real r-fan of codimension r-2 is stored as r hyperplane normals and
offsets with the cyclic convention that half-flat j lies inside every
hyperplane except j and j-1 and on the nonnegative side of hyperplane j.
Construction enforces the canonical normalization (normals and offsets
each sum to zero after rescaling by the unique hyperplane dependency),
which makes the classification predicate two-sided consistent and gives
the closed-half-flat intersection law exactly.  It runs in integers:
each hyperplane is cleared to integers, the dependency is read off one
fraction-free elimination, and the rescaled hyperplanes are divided by
their content, so normals and offsets are integers with content 1, the
unique such representative.

A complex regular r-fan is a single Hermitian functional alpha and offset
beta; half-flat j collects the points whose functional value sits on the
ray through the j-th power of the standard root of unity.  It is
classified on integer coefficient vectors: alpha and beta are stored
integral with content 1, conjugated once, and each point is cleared to
integer coefficient vectors over one positive denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Optional, Sequence, Union

from fandist.errors import MalformedFan, PreconditionError, VerificationBug
from fandist.exactnum import (
    Cyclotomic,
    _back_eliminate,
    _clear,
    _clear_cyclotomic,
    _eliminate_int,
    _field_data,
    _json_int,
    _kernel_int,
    _rational_from_json,
    scalar_from_json,
    scalar_to_json,
)
from fandist.galedual import (
    GaleDualPair,
    PointConfig,
    dependence_to_functional,
)
from fandist.kneser import SetFamily
from fandist.tverberg import TverbergTuple

__all__ = [
    "CENTER",
    "Classification",
    "ComplexFan",
    "INTERIOR",
    "OUTSIDE",
    "RealFan",
    "VerificationReport",
    "fan_from_tuple_complex",
    "fan_from_tuple_real",
    "slice_project",
    "verify_report",
]

CENTER = "center"
INTERIOR = "interior"
OUTSIDE = "outside"


def _rational(x):
    """An int or Fraction as it is; anything else (a string such as
    "1/3") through Fraction."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


@dataclass(frozen=True)
class Classification:
    """Exactly one of center / interior(j) / outside per point."""

    kind: str
    part: Optional[int] = None
    diagnostic: Optional[str] = None

    def __str__(self):
        if self.kind == INTERIOR:
            return f"interior({self.part})"
        return self.kind


class RealFan:
    """r half-flats of codimension r-2 about a codimension r-1 center.

    The normals and offsets are normalized to integers with content 1
    and kept as ``int`` tuples; points are classified in integers.
    """

    # _checked: see _verify_distribution
    __slots__ = ("r", "dim", "normals", "offsets", "_checked")

    def __init__(self, r: int, dim: int,
                 normals: Sequence[Sequence[Fraction]],
                 offsets: Sequence[Fraction]):
        if r < 3:
            raise MalformedFan("real fans need r >= 3")
        if len(normals) != r or len(offsets) != r:
            raise MalformedFan("need exactly r normals and offsets")
        if any(len(v) != dim for v in normals):
            raise MalformedFan("normal dimension mismatch")
        # each hyperplane [v | -c] cleared to integers by its own
        # positive factor, which moves no hyperplane
        H = [_clear([_rational(x) for x in v] + [-_rational(c)])[0]
             for v, c in zip(normals, offsets)]
        # one kernel decides every condition: rank r-1 leaves exactly one
        # dependency mu, and r-1 hyperplanes dropping j are independent
        # iff mu_j != 0
        M = list(zip(*H))
        pivots = _eliminate_int(M, r)
        if len(pivots) != r - 1:
            raise MalformedFan("hyperplanes must have rank exactly r-1")
        mu = _kernel_int(M, pivots, _back_eliminate(M, pivots), r)[0]
        for drop, m in enumerate(mu):
            if m == 0:
                raise MalformedFan(
                    f"any r-1 hyperplanes must be independent (drop {drop})")
        # mu holds lead > 0 at its free column, so it is never all negative
        if not all(m > 0 for m in mu):
            raise MalformedFan("orientations admit no positive normalization")
        # mu_j H_j sum to zero; dividing by their content keeps that
        H = [[m * x for x in h] for m, h in zip(mu, H)]
        g = gcd(*(x for h in H for x in h))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "normals",
                           tuple(tuple(x // g for x in h[:-1]) for h in H))
        object.__setattr__(self, "offsets", tuple(-h[-1] // g for h in H))
        object.__setattr__(self, "_checked", None)

    def __setattr__(self, *a):
        raise AttributeError("RealFan is immutable")

    def is_linear(self) -> bool:
        return all(c == 0 for c in self.offsets)

    def values(self, x: Sequence[Fraction]) -> list[Fraction]:
        return [sum(b * xi for b, xi in zip(v, x)) - c
                for v, c in zip(self.normals, self.offsets)]

    def classify(self, x: Sequence[Fraction]) -> Classification:
        """Classified by the signs of v.X - c D, where x = X / D, D > 0;
        they are the signs of v.x - c."""
        if len(x) != self.dim:
            raise PreconditionError("point dimension mismatch")
        try:
            X, D = _clear(x)
        except AttributeError:
            raise PreconditionError(
                "real fans classify rational points") from None
        vals = [sum(a * b for a, b in zip(v, X)) - c * D
                for v, c in zip(self.normals, self.offsets)]
        nonzero = [j for j, v in enumerate(vals) if v != 0]
        if not nonzero:
            return Classification(CENTER)
        for j in range(self.r):
            prev = (j - 1) % self.r
            if all(k in (j, prev) for k in nonzero) and vals[j] > 0:
                return Classification(INTERIOR, j)
        return Classification(OUTSIDE)

    def to_json(self) -> dict:
        return {
            "kind": "real",
            "r": self.r,
            "dim": self.dim,
            "normals": [[str(x) for x in v] for v in self.normals],
            "offsets": [str(c) for c in self.offsets],
            "normalized": True,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RealFan":
        normals, offsets = obj.get("normals"), obj.get("offsets")
        if not isinstance(normals, list) or \
                not all(isinstance(v, list) for v in normals):
            raise PreconditionError("normals must be a list of lists")
        if not isinstance(offsets, list):
            raise PreconditionError("offsets must be a list")
        return cls(_json_int(obj.get("r"), "r"),
                   _json_int(obj.get("dim"), "dim"),
                   [[_rational_from_json(x, "normals entry") for x in v]
                    for v in normals],
                   [_rational_from_json(c, "offsets entry") for c in offsets])


class ComplexFan:
    """Regular complex r-fan: <alpha, z> = beta + t * omega_r^j, t >= 0.

    alpha and beta are scaled to integer coefficients with content 1, and
    their conjugates are kept as integer coefficient vectors; points are
    classified in Z[zeta_N].
    """

    # _checked: see _verify_distribution
    __slots__ = ("r", "N", "dim", "alpha", "beta", "_conj_alpha",
                 "_conj_beta", "_checked")

    def __init__(self, r: int, N: int, alpha: Sequence[Cyclotomic],
                 beta: Union[Cyclotomic, Fraction, int]):
        if r < 2:
            raise MalformedFan("complex fans need r >= 2")
        if N < 1:
            raise MalformedFan("conductor must be positive")
        if N % r:
            raise MalformedFan("conductor must be divisible by r")
        alpha = tuple(a if isinstance(a, Cyclotomic)
                      else Cyclotomic.from_rational(N, a) for a in alpha)
        if any(a.N != N for a in alpha):
            raise MalformedFan("alpha conductor mismatch")
        if all(a.is_zero() for a in alpha):
            raise MalformedFan("alpha must be nonzero")
        if not isinstance(beta, Cyclotomic):
            beta = Cyclotomic.from_rational(N, beta)
        if beta.N != N:
            raise MalformedFan("beta conductor mismatch")
        # the positive factor carrying the coefficients to integers with
        # content 1; scaling a whole fan by it changes no half-flat
        nums, den = _clear([c for a in alpha for c in a.coeffs]
                           + list(beta.coeffs))
        g = gcd(*nums)
        lam = Fraction(den, g)
        if lam != 1:
            alpha = tuple(a * lam for a in alpha)
            beta = beta * lam
        # the same integers, conjugated: conj(alpha_k), then conj(beta)
        data = _field_data(N)
        conjugates = [
            data.power_map([x // g for x in nums[i:i + data.deg]], N - 1)
            for i in range(0, len(nums), data.deg)]
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "dim", len(alpha))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "_conj_alpha", tuple(conjugates[:-1]))
        object.__setattr__(self, "_conj_beta", conjugates[-1])
        object.__setattr__(self, "_checked", None)

    def __setattr__(self, *a):
        raise AttributeError("ComplexFan is immutable")

    def omega(self, j: int = 1) -> Cyclotomic:
        return Cyclotomic.root_of_unity(self.N, (self.N // self.r) * j)

    def is_linear(self) -> bool:
        return self.beta.is_zero()

    def classify(self, x: Sequence[Cyclotomic]) -> Classification:
        """Classified in integers by D conj(w), where w = <alpha, x> - beta
        and x = X / D, D > 0: D conj(w) = sum conj(alpha_k) X_k
        - conj(beta) D.  w omega^(-j) is a positive rational exactly when
        its conjugate times D, D conj(w) omega^j, is one."""
        if len(x) != self.dim:
            raise PreconditionError("point dimension mismatch")
        N = self.N
        for xi in x:
            if isinstance(xi, Cyclotomic) and N % xi.N:
                raise PreconditionError(f"a point over Q(zeta_{xi.N}) is "
                                        f"not in Q(zeta_{N})")
        x = [xi if isinstance(xi, Cyclotomic) and xi.N == N
             else (xi.embed(N) if isinstance(xi, Cyclotomic)
                   else Cyclotomic.from_rational(N, xi))
             for xi in x]
        data = _field_data(N)
        X, D = _clear_cyclotomic(x, data.deg)
        q = [a - D * b for a, b in
             zip(data.dot_int(self._conj_alpha, X), self._conj_beta)]
        if not any(q):
            return Classification(CENTER)
        omega = data.power_table[N // self.r]
        saw_rational = False
        for j in range(self.r):
            if not any(q[1:]):
                if q[0] > 0:
                    return Classification(INTERIOR, j)
                saw_rational = True
            q = data.mul_int(q, omega)
        if saw_rational:
            return Classification(OUTSIDE)
        return Classification(OUTSIDE, diagnostic="not-rational-real")

    def to_json(self) -> dict:
        return {
            "kind": "complex",
            "r": self.r,
            "N": self.N,
            "alpha": [scalar_to_json(a) for a in self.alpha],
            "beta": scalar_to_json(self.beta),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ComplexFan":
        N = _json_int(obj.get("N"), "N")
        alpha = obj.get("alpha")
        if not isinstance(alpha, list):
            raise PreconditionError("alpha must be a list")
        alpha = [scalar_from_json(a, "alpha entry") for a in alpha]
        beta = scalar_from_json(obj.get("beta"), "beta")
        return cls(_json_int(obj.get("r"), "r"), N, alpha, beta)


# a PEP 604 union: typing.Union[...] is memoized, and its cache would keep
# every re-imported copy of this module alive
Fan = RealFan | ComplexFan


def fan_from_json(obj) -> Fan:
    if not isinstance(obj, dict):
        raise PreconditionError("a fan is a JSON object")
    if obj.get("kind") == "complex" or "alpha" in obj:
        return ComplexFan.from_json(obj)
    return RealFan.from_json(obj)


def fan_from_tuple_real(pair: GaleDualPair, tup: TverbergTuple) -> RealFan:
    """Linear real fan distributing the dual points according to the parts.

    For each j the dependence with weights +t on part j and -t on part
    j-1 is carried to a functional alpha_j; the stored normal for
    half-flat j is -alpha_(j+1), which aligns the interior predicate with
    the part labels.  The tuple's witness and the distribution claim are
    re-verified exactly.
    """
    if pair.primal.conductor is not None:
        raise PreconditionError("real fans need a rational configuration")
    tup.validate(pair.primal)
    return _real_fan(pair, tup)


def _real_fan(pair: GaleDualPair, tup: TverbergTuple) -> RealFan:
    """``fan_from_tuple_real`` on a rational pair and a tuple whose
    witness has been verified."""
    r = tup.r
    n = pair.primal.n
    t = tup.witness.weights
    alphas = []
    for j in range(r):
        lam = [Fraction(0)] * n
        for i in tup.parts[j]:
            lam[i] = t[i]
        for i in tup.parts[(j - 1) % r]:
            lam[i] = -t[i]
        alphas.append(dependence_to_functional(pair, lam))
    dim = pair.dual.dim
    normals = [tuple(-x for x in alphas[(j + 1) % r]) for j in range(r)]
    fan = RealFan(r, dim, normals, [Fraction(0)] * r)
    _verify_distribution(fan, pair.dual, tup)
    return fan


def fan_from_tuple_complex(pair: GaleDualPair,
                           tup: TverbergTuple) -> ComplexFan:
    """Linear complex regular fan from a proper tuple over Q(zeta_N).  The
    tuple's witness and the distribution claim are re-verified exactly."""
    N = pair.primal.conductor
    if N is None:
        raise PreconditionError("complex fans need a cyclotomic configuration")
    if N % tup.r:
        raise PreconditionError(
            f"conductor {N} must be divisible by r={tup.r}")
    tup.validate(pair.primal)
    return _complex_fan(pair, tup)


def _complex_fan(pair: GaleDualPair, tup: TverbergTuple) -> ComplexFan:
    """``fan_from_tuple_complex`` on a pair over Q(zeta_N), r | N, and a
    tuple whose witness has been verified."""
    N, r = pair.primal.conductor, tup.r
    n = pair.primal.n
    t = tup.witness.weights
    lam = [Cyclotomic.from_rational(N, 0)] * n
    for j in range(r):
        w = Cyclotomic.root_of_unity(N, (N // r) * j)
        for i in tup.parts[j]:
            lam[i] = w * t[i]
    fan = ComplexFan(r, N, dependence_to_functional(pair, lam), 0)
    _verify_distribution(fan, pair.dual, tup)
    return fan


def _verify_distribution(fan: Fan, config: PointConfig,
                         tup: TverbergTuple) -> None:
    """Point i of config must lie in interior j when i is in part j, and
    on the center otherwise; raises VerificationBug at the first miss.

    The checked classifications stay on the fan until the next
    ``verify_report`` on it, which takes them for this config instead of
    classifying every point again; they travel with the fan because the
    drivers call ``verify_report`` through its public signature.
    """
    part_of = {}
    for j, p in enumerate(tup.parts):
        for i in p:
            part_of[i] = j
    cls = []
    for i, g in enumerate(config.points):
        c = fan.classify(g)
        want = part_of.get(i)
        if want is None:
            if c.kind != CENTER:
                raise VerificationBug(
                    f"leftover point {i} classifies {c}, expected center")
        elif c.kind != INTERIOR or c.part != want:
            raise VerificationBug(
                f"point {i} classifies {c}, expected interior({want})")
        cls.append(c)
    object.__setattr__(fan, "_checked", (config, cls))


def slice_project(fan: Fan) -> Fan:
    """Intersect a linear fan with the height-one slab and project.

    Real: alpha_j = (beta_j, gamma_j) becomes the affine hyperplane
    <beta_j, x> = -gamma_j.  Complex: alpha = (beta, gamma) becomes the
    fan with normal beta and offset -gamma.  Classification commutes with
    lifting, exactly.
    """
    if isinstance(fan, RealFan):
        if not fan.is_linear():
            raise PreconditionError("slice_project expects a linear fan")
        normals = [v[:-1] for v in fan.normals]
        offsets = [-v[-1] for v in fan.normals]
        for j, b in enumerate(normals):
            if all(x == 0 for x in b):
                raise MalformedFan(f"projected normal {j} is zero")
        return RealFan(fan.r, fan.dim - 1, normals, offsets)
    if not fan.is_linear():
        raise PreconditionError("slice_project expects a linear fan")
    beta = fan.alpha[:-1]
    gamma = fan.alpha[-1]
    if all(b.is_zero() for b in beta):
        raise MalformedFan("projected complex normal is zero")
    return ComplexFan(fan.r, fan.N, beta, -gamma)


@dataclass(frozen=True)
class VerificationReport:
    """Exact verification of a fan distribution against a configuration."""

    mode: str
    r: int
    passes: bool
    center_count: int
    interior_counts: tuple          # per half-flat totals
    cell_class_counts: dict         # "(j,k)" or "(i,j,k)" -> count
    robustness: int                 # total interior occupancy
    class_sizes: tuple
    failures: tuple
    details: dict

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "r": self.r,
            "passes": self.passes,
            "center_count": self.center_count,
            "interior_counts": list(self.interior_counts),
            "cell_class_counts": {k: v for k, v in
                                  sorted(self.cell_class_counts.items())},
            "robustness": self.robustness,
            "class_sizes": list(self.class_sizes),
            "failures": list(self.failures),
            "details": self.details,
        }


def _labels(fan: Fan, config: PointConfig):
    """Each point of config classified under fan: (classifications, each
    point's interior index or None, center count, per-interior counts).
    The classifications that ``_verify_distribution`` left on the fan are
    taken, once, when they are of this very config."""
    checked, cls = fan._checked or (None, None)
    object.__setattr__(fan, "_checked", None)
    if checked is not config:
        cls = [fan.classify(x) for x in config.points]
    parts = [c.part if c.kind == INTERIOR else None for c in cls]
    interiors = [parts.count(j) for j in range(fan.r)]
    return cls, parts, sum(c.kind == CENTER for c in cls), interiors


def verify_report(fan: Fan, config: PointConfig, mode: str, *,
                  family: Optional[SetFamily] = None,
                  other_fan: Optional[Fan] = None) -> VerificationReport:
    """Classify every point and check the requested distribution mode.

    Modes: distribute, equidistribute, pierce, rainbow, two-fan.  A cell
    is the set of points interior to half-flat j of the fan, keyed (j,),
    or, in two-fan mode, to half-flat i of the fan and j of the second,
    keyed (i, j).  With k such fans, equidistribute and two-fan without a
    family cap every class c in every cell at fan.r ** k * count <= |X_c|;
    rainbow allows one point of each class per cell, and two-fan with a
    family no member inside a cell.  All counting is exact integer
    arithmetic; the report carries per-cell counts and the total interior
    occupancy (the robustness statistic).  A second fan outside two-fan
    mode, or a family outside pierce and two-fan mode, is refused rather
    than ignored, and so is a family over another ground set.
    """
    if mode not in ("distribute", "equidistribute", "pierce", "rainbow",
                    "two-fan"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if other_fan is not None and mode != "two-fan":
        raise PreconditionError("only two-fan mode reads a second fan")
    if family is not None and mode not in ("pierce", "two-fan"):
        raise PreconditionError("only pierce and two-fan modes read a family")
    if family is not None and family.n != config.n:
        raise PreconditionError("family ground set must match the points")
    coloring = config.coloring or [0] * config.n
    sizes = config.class_sizes()
    cls1, parts, center, interiors = _labels(fan, config)
    failures: list[str] = []
    details: dict = {}

    r = fan.r
    diagnostics = {str(i): c.diagnostic for i, c in enumerate(cls1)
                   if c.diagnostic}
    if diagnostics:
        details["diagnostics"] = diagnostics
    outside = [i for i, c in enumerate(cls1) if c.kind == OUTSIDE]
    if outside:
        failures.append(f"points outside the fan: {outside}")

    fans, labels = [fan], [parts]
    if mode == "two-fan":
        if other_fan is None:
            raise PreconditionError("two-fan mode needs the second fan")
        cls2, parts2, center2, interiors2 = _labels(other_fan, config)
        out2 = [i for i, c in enumerate(cls2) if c.kind == OUTSIDE]
        if out2:
            failures.append(f"points outside the second fan: {out2}")
        details.update(second_fan_interiors=interiors2,
                       second_fan_center=center2)
        fans, labels = [fan, other_fan], [parts, parts2]

    k = len(fans)
    cells = {cell: [] for cell in product(*(range(f.r) for f in fans))}
    for p, cell in enumerate(zip(*labels)):
        if None not in cell:
            cells[cell].append(p)
    capped = mode == "equidistribute" or mode == "two-fan" and family is None
    cell_counts: dict[str, int] = {}
    for cell, members in cells.items():
        name = f"half-flat {cell[0]}" if k == 1 else \
            f"cell ({','.join(map(str, cell))})"
        for c, size in enumerate(sizes):
            cnt = sum(1 for p in members if coloring[p] == c)
            cell_counts["(" + ",".join(map(str, cell + (c,))) + ")"] = cnt
            if capped and r ** k * cnt > size:
                failures.append(f"{name} holds {cnt} of class {c}: "
                                f"{r ** k}*{cnt} > {size}")
            if mode == "rainbow" and cnt > 1:
                failures.append(f"{name} holds more than one of class {c}")
        if mode == "two-fan" and family is not None:
            inside = set(members)
            failures.extend(f"family member {list(m)} sits inside {name}"
                            for m in family.members if inside.issuperset(m))

    if mode == "pierce":
        if family is None:
            raise PreconditionError("pierce mode needs the family")
        meets, contained = {}, []
        for m in family.members:
            tags = {parts[i] for i in m}
            any_center = any(cls1[i].kind == CENTER for i in m)
            count = r if any_center else len(tags - {None})
            meets[str(list(m))] = count
            if count < 2:
                failures.append(f"family member {list(m)} meets only "
                                f"{count} closed half-flats")
            # the stronger conclusion from the proof, reported not enforced
            if not any_center and len(tags) == 1 and None not in tags:
                contained.append(list(m))
        details["closed_halfflat_meets"] = meets
        details["members_inside_one_interior"] = contained

    return VerificationReport(
        mode=mode, r=r, passes=not failures, center_count=center,
        interior_counts=tuple(interiors), cell_class_counts=cell_counts,
        robustness=sum(interiors), class_sizes=tuple(sizes),
        failures=tuple(failures), details=details)
