import dataclasses
import enum
import json
import random
from fractions import Fraction
from fractions import Fraction as F
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fandist.errors import MalformedFan, PreconditionError, VerificationBug
from fandist.exactnum import Cyclotomic, ExactMatrix, conj, hermitian_dot
from fandist.fans import (
    CENTER,
    INTERIOR,
    OUTSIDE,
    Classification,
    ComplexFan,
    RealFan,
    VerificationReport,
    fan_from_json,
    fan_from_tuple_complex,
    fan_from_tuple_real,
    slice_project,
    verify_report,
)
from fandist.feaslp import (
    ProperWeightProblem,
    WeightWitness,
    proper_weights,
    realify_if_needed,
)
from fandist.galedual import (
    GaleDualPair,
    PointConfig,
    gale_pair_from_dual,
    gale_transform,
    lift_augment,
)
from fandist.kneser import SetFamily
from fandist.genpos import random_config
from fandist.pipeline import canonical_json, equidistribute
from fandist.tverberg import TverbergTuple, search_tuple


def random_proper_pair(seed, complex_field=False):
    """A Gale pair plus a proper tuple on its primal, or None."""
    rng = random.Random(seed)
    if complex_field:
        N = 4
        n = rng.randint(5, 6)
        d = 1
        pts = [[Cyclotomic(N, [F(rng.randint(-9, 9), rng.randint(1, 4)),
                               F(rng.randint(-9, 9), rng.randint(1, 4))])
                for _ in range(d)] for _ in range(n)]
        cfg = PointConfig(d, pts, N)
        r = 2
    else:
        n = rng.randint(5, 7)
        d = rng.randint(1, 2)
        pts = [[F(rng.randint(-15, 15), rng.randint(1, 6))
                for _ in range(d)] for _ in range(n)]
        cfg = PointConfig(d, pts)
        r = 3 if n >= (2 * (d + 1) + 1) else 3
    if not cfg.affinely_spanning():
        return None
    tup = search_tuple(cfg, r)
    if tup is None:
        return None
    return gale_transform(cfg), tup


def classify_oracle(fan, x):
    """RealFan classification in Fractions, from the public normals."""
    vals = [sum((b * xi for b, xi in zip(v, x)), F(0)) - c
            for v, c in zip(fan.normals, fan.offsets)]
    nonzero = [j for j, v in enumerate(vals) if v]
    if not nonzero:
        return Classification(CENTER)
    for j in range(fan.r):
        if all(k in (j, (j - 1) % fan.r) for k in nonzero) and vals[j] > 0:
            return Classification(INTERIOR, j)
    return Classification(OUTSIDE)


# -- the converse map, the round-trip oracle of fan_from_tuple_real ----------

def tuple_from_fan(fan: RealFan, pair: GaleDualPair) -> TverbergTuple:
    """Proper tuple read off a linear real fan distributing the dual.

    Parts are the interior occupancies; the equal part sums of the
    positive functional values normalize the weights.  The witness is
    re-verified by exact substitution before the tuple is returned.
    """
    if not isinstance(fan, RealFan):
        raise PreconditionError("tuple_from_fan applies to real fans")
    if not fan.is_linear():
        raise PreconditionError("fan must be linear (zero offsets)")
    parts: list[list[int]] = [[] for _ in range(fan.r)]
    for i, g in enumerate(pair.dual.points):
        c = fan.classify(g)
        if c.kind == OUTSIDE:
            raise PreconditionError(
                f"dual point {i} lies outside the fan")
        if c.kind == INTERIOR:
            parts[c.part].append(i)
    if any(not p for p in parts):
        raise PreconditionError("every half-flat interior must be occupied")
    sums = []
    vals: dict[int, Fraction] = {}
    for j, p in enumerate(parts):
        s = Fraction(0)
        for i in p:
            v = sum(b * xi for b, xi in zip(fan.normals[j],
                                            pair.dual.points[i]))
            vals[i] = v
            s += v
        sums.append(s)
    if any(s != sums[0] for s in sums) or sums[0] <= 0:
        raise VerificationBug("part sums of functional values differ")
    weights = {i: vals[i] / sums[0] for i in vals}
    primal_pts = realify_if_needed(pair.primal).points
    dimp = len(primal_pts[0]) if primal_pts else 0
    common = tuple(
        sum((weights[i] * primal_pts[i][c] for i in parts[0]), Fraction(0))
        for c in range(dimp))
    witness = WeightWitness(weights, common, min(weights.values()))
    tup = TverbergTuple(fan.r, tuple(tuple(p) for p in parts), witness)
    tup.validate(pair.primal)
    return tup


fracs = st.builds(F, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def real_fans(draw):
    """A RealFan read from JSON, offsets nonzero, entries with
    denominators > 1 (each hyperplane scaled by its own positive q)."""
    r = draw(st.integers(3, 4))
    dim = draw(st.integers(2, 3))
    small = st.integers(-3, 3)
    normals = draw(st.lists(st.lists(small, min_size=dim, max_size=dim),
                            min_size=r - 1, max_size=r - 1))
    offsets = draw(st.lists(small, min_size=r - 1, max_size=r - 1))
    normals.append([-sum(col) for col in zip(*normals)])
    offsets.append(-sum(offsets))
    assume(any(offsets))
    scales = draw(st.lists(st.builds(F, st.integers(1, 5), st.integers(2, 7)),
                           min_size=r, max_size=r))
    obj = {"kind": "real", "r": r, "dim": dim,
           "normals": [[str(q * x) for x in v]
                       for q, v in zip(scales, normals)],
           "offsets": [str(q * c) for q, c in zip(scales, offsets)]}
    try:
        return fan_from_json(obj)
    except MalformedFan:
        assume(False)


@st.composite
def fans_with_point(draw):
    """A fan and a point with denominators > 1: free, or on the center,
    or on the flat of one half-flat (all hyperplanes but j, j-1)."""
    fan = draw(real_fans())
    free = draw(st.lists(fracs, min_size=fan.dim, max_size=fan.dim))
    kind = draw(st.sampled_from(("free", "center", "flat")))
    x = free
    if kind != "free":
        j = draw(st.integers(0, fan.r - 1))
        on = range(fan.r) if kind == "center" else \
            [k for k in range(fan.r) if k not in (j, (j - 1) % fan.r)]
        A = ExactMatrix([fan.normals[k] for k in on])
        base = A.solve([fan.offsets[k] for k in on])
        if base is not None:
            x = list(base)
            for u, t in zip(A.kernel_basis(), free):
                x = [a + t * b for a, b in zip(x, u)]
    assume(any(xi.denominator > 1 for xi in x))
    return fan, tuple(x)


class TestIntegerClassification:
    @settings(max_examples=400, deadline=None)
    @given(fans_with_point())
    def test_against_fraction_oracle(self, case):
        fan, x = case
        assert fan.classify(x) == classify_oracle(fan, x)

    def test_non_rational_coordinates_rejected(self):
        fan = RealFan(3, 1, [[1], [-1], [0]], [1, 0, -1])
        for x in ([Cyclotomic(4, [1, 1])], [Cyclotomic(4, [2])], [0.5]):
            with pytest.raises(PreconditionError, match="rational points"):
                fan.classify(x)

    def test_hand_fan_with_offsets(self):
        # normalizes to normals (1, 0), (0, 1), (-1, -1), offsets 1, -1, 0
        fan = fan_from_json({"kind": "real", "r": 3, "dim": 2,
                             "normals": [["1/2", "0"], ["0", "1/3"],
                                         ["-1", "-1"]],
                             "offsets": ["1/2", "-1/3", "0"]})
        assert fan.offsets != (0, 0, 0)
        for x, want in [((F(1), F(-1)), Classification(CENTER)),
                        ((F(5, 2), F(-1)), Classification(INTERIOR, 0)),
                        ((F(-3, 2), F(3, 2)), Classification(INTERIOR, 1)),
                        ((F(1), F(-5, 3)), Classification(INTERIOR, 2)),
                        ((F(5, 2), F(3, 2)), Classification(OUTSIDE))]:
            assert fan.classify(x) == classify_oracle(fan, x) == want


@st.composite
def complex_fans(draw):
    N = draw(st.sampled_from((3, 4, 8, 12)))
    r = draw(st.sampled_from([k for k in range(2, N + 1) if N % k == 0]))
    dim = draw(st.integers(1, 3))
    elem = st.lists(fracs, max_size=6).map(lambda cs: Cyclotomic(N, cs))
    alpha = draw(st.lists(elem, min_size=dim, max_size=dim))
    assume(not all(a.is_zero() for a in alpha))
    return ComplexFan(r, N, alpha, draw(elem))


class Positivity(enum.Enum):
    """Sign classification within the rational subfield."""

    POSITIVE = "yes-positive"
    ZERO = "yes-zero"
    NEGATIVE = "negative"
    NOT_RATIONAL = "not-rational-real"


def is_positive_rational(s) -> Positivity:
    """Sign test restricted to the rational subfield: a Cyclotomic
    element outside Q reports NOT_RATIONAL."""
    if isinstance(s, Cyclotomic):
        if not s.is_rational():
            return Positivity.NOT_RATIONAL
        s = s.coeffs[0]
    if s > 0:
        return Positivity.POSITIVE
    if s < 0:
        return Positivity.NEGATIVE
    return Positivity.ZERO


def complex_classify_oracle(fan, x):
    """ComplexFan classification in Fraction-coefficient field arithmetic:
    w = <alpha, x> - beta, rotated by omega^(-j) and sign-tested."""
    if len(x) != fan.dim:
        raise PreconditionError("point dimension mismatch")
    for xi in x:
        if isinstance(xi, Cyclotomic) and fan.N % xi.N:
            raise PreconditionError(f"a point over Q(zeta_{xi.N}) is "
                                    f"not in Q(zeta_{fan.N})")
    x = tuple(xi.embed(fan.N) if isinstance(xi, Cyclotomic)
              else Cyclotomic.from_rational(fan.N, xi) for xi in x)
    w = hermitian_dot(fan.alpha, x) - fan.beta
    if w.is_zero():
        return Classification(CENTER)
    saw_rational = False
    for j in range(fan.r):
        q = w * Cyclotomic.root_of_unity(fan.N, -(fan.N // fan.r) * j)
        sign = is_positive_rational(q)
        if sign is Positivity.POSITIVE:
            return Classification(INTERIOR, j)
        if sign is not Positivity.NOT_RATIONAL:
            saw_rational = True
    if saw_rational:
        return Classification(OUTSIDE)
    return Classification(OUTSIDE, diagnostic="not-rational-real")


def with_value(alpha, target, x):
    """x with the first coordinate that alpha weights moved so that
    <alpha, x> = target (target * 0 is zero in target's field)."""
    x = list(x)
    i = next(i for i, a in enumerate(alpha) if a)
    rest = sum((a * conj(xk) for k, (a, xk) in enumerate(zip(alpha, x))
                if k != i), target * 0)
    x[i] = conj((target - rest) / alpha[i])
    return x


# Q(zeta_5) holds no r-th root of unity for r in {2, 3, 4}, so it enters
# as the lower conductor of points classified by fans over Q(zeta_10)
CLASSIFY_FIELDS = [(N, r) for N in (3, 4, 8, 10, 12) for r in (2, 3, 4)
                   if N % r == 0]


@st.composite
def complex_classify_cases(draw):
    """A complex fan over Q(zeta_N) with alpha and beta drawn in a subfield
    Q(zeta_L), L | N, and a point over Q(zeta_L) that classify embeds:
    free, on the center, on a ray through an r-th root of unity, off
    every ray (rotated by a root that is not an r-th root, or by
    2 + zeta_L), with rational coordinates, or over a conductor that
    does not divide N."""
    N, r = draw(st.sampled_from(CLASSIFY_FIELDS))
    L = draw(st.sampled_from([N, N] + [M for M in range(1, N) if N % M == 0]))
    elem = st.lists(fracs, max_size=6).map(lambda cs: Cyclotomic(L, cs))
    dim = draw(st.integers(1, 3))
    alpha = draw(st.lists(elem, min_size=dim, max_size=dim))
    assume(any(alpha))
    beta = draw(elem)
    fan = ComplexFan(r, N, [a.embed(N) for a in alpha], beta.embed(N))
    x = draw(st.lists(elem, min_size=dim, max_size=dim))
    kind = draw(st.sampled_from(("free", "center", "ray", "ray", "off-ray",
                                 "off-ray", "rational", "foreign")))
    if kind == "rational":
        return fan, draw(st.lists(fracs, min_size=dim, max_size=dim))
    if kind == "foreign":
        M = draw(st.sampled_from([M for M in (3, 4, 5, 8, 12) if N % M]))
        x[draw(st.integers(0, dim - 1))] = draw(
            st.lists(fracs, max_size=4).map(lambda cs: Cyclotomic(M, cs)))
        return fan, x
    if kind == "free":
        return fan, x
    zeta = Cyclotomic.root_of_unity(L)
    roots = [s * zeta ** k for s in (1, -1) for k in range(L)]
    w = Cyclotomic.from_rational(L, 0)
    if kind != "center":
        on = [rho for rho in roots if rho ** r == 1]
        off = [rho for rho in roots if rho ** r != 1] + [2 + zeta]
        t = draw(st.builds(F, st.integers(1, 9), st.integers(1, 7)))
        w = t * draw(st.sampled_from(on if kind == "ray" else off))
    return fan, with_value(alpha, beta + w, x)


def classify_or_error(classify, fan, x):
    try:
        return classify(fan, x)
    except Exception as exc:
        return type(exc), str(exc)


class TestComplexIntegerClassification:
    @settings(max_examples=600, deadline=None)
    @given(complex_classify_cases())
    def test_against_field_oracle(self, case):
        fan, x = case
        assert classify_or_error(ComplexFan.classify, fan, x) == \
            classify_or_error(complex_classify_oracle, fan, x)

    def test_affine_fan_with_denominators(self):
        # alpha = zeta_4 and beta = 1 + zeta_4 are not real, and the
        # point's denominator D = 6 scales beta
        N = 4
        i = Cyclotomic.root_of_unity(N)
        fan = ComplexFan(2, N, [i], 1 + i)
        for x, want in [((1 + i) / i, Classification(CENTER)),
                        ((1 + i + F(1, 6)) / i, Classification(INTERIOR, 0)),
                        ((1 + i - F(5, 6)) / i, Classification(INTERIOR, 1)),
                        ((1 + i + i / 6) / i, Classification(
                            OUTSIDE, diagnostic="not-rational-real"))]:
            x = [conj(x)]
            assert fan.classify(x) == complex_classify_oracle(fan, x) == want


class TestFanJsonRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(real_fans())
    def test_real(self, fan):
        obj = fan.to_json()
        back = fan_from_json(json.loads(json.dumps(obj)))
        assert isinstance(back, RealFan)
        assert back.normals == fan.normals and back.offsets == fan.offsets
        assert back.to_json() == obj
        assert fan_from_json(back.to_json()).to_json() == obj

    @settings(max_examples=150, deadline=None)
    @given(complex_fans())
    def test_complex(self, fan):
        obj = fan.to_json()
        back = fan_from_json(json.loads(json.dumps(obj)))
        assert isinstance(back, ComplexFan)
        assert (back.r, back.N) == (fan.r, fan.N)
        assert [a.coeffs for a in back.alpha] == \
            [a.coeffs for a in fan.alpha]
        assert back.beta.coeffs == fan.beta.coeffs
        assert back.to_json() == obj
        assert fan_from_json(back.to_json()).to_json() == obj


def normalize_oracle(r, normals, offsets):
    """The Fraction normalization of a real fan: (normals, offsets) as
    int tuples, or the MalformedFan message it raises."""
    normals = [tuple(F(x) for x in v) for v in normals]
    offsets = [F(c) for c in offsets]
    lifted = [list(v) + [-c] for v, c in zip(normals, offsets)]
    kb = ExactMatrix.from_columns(lifted).kernel_basis()
    if len(kb) != 1:
        return "hyperplanes must have rank exactly r-1"
    mu = kb[0]
    for drop, m in enumerate(mu):
        if m == 0:
            return f"any r-1 hyperplanes must be independent (drop {drop})"
    if all(m < 0 for m in mu):
        mu = tuple(-m for m in mu)
    elif not all(m > 0 for m in mu):
        return "orientations admit no positive normalization"
    normals = [tuple(m * x for x in v) for m, v in zip(mu, normals)]
    offsets = [m * c for m, c in zip(mu, offsets)]
    values = [x for v in normals for x in v] + offsets
    den = lcm(*(x.denominator for x in values))
    lam = F(den, gcd(*(x.numerator * (den // x.denominator)
                       for x in values)))
    out = (tuple(tuple(lam * x for x in v) for v in normals),
           tuple(lam * c for c in offsets))
    assert all(x.denominator == 1 for v in out[0] for x in v)
    assert all(c.denominator == 1 for c in out[1])
    return out


@st.composite
def fan_inputs(draw):
    """(r, dim, normals, offsets) in Fractions: r - 1 free hyperplanes
    (linear ones half the time) and, mostly, one more in their span with
    positive weights, with all or one of them then negated; else a free
    one."""
    r = draw(st.integers(3, 5))
    dim = draw(st.integers(max(1, r - 2), 3))
    row = st.lists(fracs, min_size=dim + 1, max_size=dim + 1)
    rows = draw(st.lists(row, min_size=r - 1, max_size=r - 1))
    if draw(st.booleans()):
        rows = [h[:-1] + [F(0)] for h in rows]
    if draw(st.integers(0, 3)):
        mu = draw(st.lists(st.builds(F, st.integers(1, 5),
                                     st.integers(1, 4)),
                           min_size=r, max_size=r))
        rows.append([-sum(m * h[i] for m, h in zip(mu, rows)) / mu[-1]
                     for i in range(dim + 1)])
        flip = draw(st.sampled_from(["none", "none", "all", "one"]))
        if flip != "none":
            j = draw(st.integers(0, r - 1))
            rows = [[-x for x in h] if flip == "all" or k == j else h
                    for k, h in enumerate(rows)]
    else:
        rows.append(draw(row))
    return r, dim, [h[:-1] for h in rows], [-h[-1] for h in rows]


class TestIntegerNormalization:
    @settings(max_examples=300, deadline=None)
    @given(fan_inputs())
    def test_matches_fraction_oracle(self, case):
        r, dim, normals, offsets = case
        want = normalize_oracle(r, normals, offsets)
        # each hyperplane cleared to integers by its own positive factor
        scaled = []
        for v, c in zip(normals, offsets):
            q = lcm(*(x.denominator for x in list(v) + [c]))
            scaled.append(([int(q * x) for x in v], int(q * c)))
        forms = [
            lambda: RealFan(r, dim, normals, offsets),
            lambda: RealFan(r, dim, [[str(x) for x in v] for v in normals],
                            [str(c) for c in offsets]),
            lambda: RealFan(r, dim, [v for v, _ in scaled],
                            [c for _, c in scaled]),
            lambda: fan_from_json(json.loads(json.dumps({
                "kind": "real", "r": r, "dim": dim,
                "normals": [[str(x) for x in v] for v in normals],
                "offsets": [str(c) for c in offsets]}))),
        ]
        for make in forms:
            if isinstance(want, str):
                with pytest.raises(MalformedFan) as err:
                    make()
                assert str(err.value) == want
            else:
                fan = make()
                assert (fan.normals, fan.offsets) == want
                assert all(type(x) is int for v in fan.normals for x in v)
                assert all(type(c) is int for c in fan.offsets)

    @pytest.mark.parametrize("r, dim, normals, offsets, message", [
        (2, 1, [[1], [-1]], [0, 0], "r >= 3"),
        (3, 1, [[1], [-1]], [0, 0, 0], "exactly r normals"),
        (3, 2, [[1, 0], [0, 1], [-1]], [0, 0, 0], "dimension mismatch"),
        # three independent hyperplanes: no dependency at all
        (3, 2, [[1, 0], [0, 1], [1, 1]], [0, 0, 1], "rank exactly r-1"),
        # four hyperplanes in a 2-dimensional lifted space: rank 1 < 3
        (4, 1, [[1], [2], [-3], [1]], [0, 0, 0, 0], "rank exactly r-1"),
        (4, 2, [[1, 0], [0, 1], [-1, -1], [1, 1]], [0, 0, 0, 0],
         "rank exactly r-1"),
        (4, 2, [[1, 0], [0, 1], [-1, -1], [0, 0]], [0, 0, 0, 1],
         r"independent \(drop 3\)"),
    ])
    def test_malformed_fan_messages(self, r, dim, normals, offsets,
                                    message):
        with pytest.raises(MalformedFan, match=message):
            RealFan(r, dim, normals, offsets)


class TestRealFanGeometry:
    def test_hand_fan_classification(self):
        fan = RealFan(3, 2, [[1, 0], [0, 1], [-1, -1]], [0, 0, 0])
        assert fan.classify((F(2), F(0))) == Classification(INTERIOR, 0)
        assert fan.classify((F(-1), F(1))) == Classification(INTERIOR, 1)
        assert fan.classify((F(0), F(-3))) == Classification(INTERIOR, 2)
        assert fan.classify((F(1), F(1))).kind == OUTSIDE
        assert fan.classify((F(0), F(0))).kind == CENTER

    def test_origin_is_center_of_linear_fans(self):
        fan = RealFan(3, 3, [[1, 0, 0], [0, 1, 0], [-1, -1, 0]], [0, 0, 0])
        assert fan.classify((F(0), F(0), F(0))).kind == CENTER

    def test_normalization_rescales(self):
        # scaled hyperplanes normalize back to summing to zero
        fan = RealFan(3, 2, [[2, 0], [0, 3], [-1, -1]], [0, 0, 0])
        for i in range(2):
            assert sum(v[i] for v in fan.normals) == 0

    @pytest.mark.parametrize("normals, message", [
        # rank 1: two independent dependencies instead of one
        ([[1, 0], [2, 0], [-3, 0]], "rank exactly r-1"),
        # mu = (1, 1, 0): the two hyperplanes left after dropping 2 agree
        ([[1, 0], [-1, 0], [0, 1]], r"independent \(drop 2\)"),
        # mu = (1, 1, -1): no positive rescaling sums to zero
        ([[1, 0], [0, 1], [1, 1]], "orientations"),
    ], ids=["rank", "zero-mu", "orientation"])
    def test_rank_conditions_enforced(self, normals, message):
        with pytest.raises(MalformedFan, match=message):
            RealFan(3, 2, normals, [0, 0, 0])

    def test_classification_trichotomy(self):
        fan = RealFan(3, 2, [[1, 0], [0, 1], [-1, -1]], [0, 0, 0])
        rng = random.Random(2)
        tags = set()
        for _ in range(200):
            x = (F(rng.randint(-4, 4), rng.randint(1, 3)),
                 F(rng.randint(-4, 4), rng.randint(1, 3)))
            c = fan.classify(x)
            assert c.kind in (CENTER, INTERIOR, OUTSIDE)
            tags.add(c.kind)
        assert OUTSIDE in tags

    def test_closed_halfflat_intersection_law(self):
        # membership in two distinct closed half-flats implies center
        fan = RealFan(4, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                             [-1, -1, -1, 0]], [0, 0, 0, 0])

        def in_closed(fan, x, j):
            vals = fan.values(x)
            prev = (j - 1) % fan.r
            return all(vals[k] == 0 for k in range(fan.r)
                       if k not in (j, prev)) and vals[j] >= 0

        rng = random.Random(3)
        for _ in range(300):
            x = tuple(F(rng.randint(-2, 2)) for _ in range(4))
            hits = [j for j in range(4) if in_closed(fan, x, j)]
            if len(hits) >= 2:
                assert fan.classify(x).kind == CENTER

    def test_json_round_trip(self):
        fan = RealFan(3, 2, [[1, 0], [0, 1], [-1, -1]], [0, 0, 0])
        back = fan_from_json(fan.to_json())
        assert back.normals == fan.normals and back.offsets == fan.offsets


class TestFanFromTuple:
    def test_collinear_five_distribution(self):
        cfg = PointConfig(1, [[1], [2], [3], [4], [5]])
        pair = gale_transform(cfg)
        tup = search_tuple(cfg, 3)
        fan = fan_from_tuple_real(pair, tup)
        assert fan.dim == 3
        # sum of normals vanishes; every pair of normals independent
        for i in range(fan.dim):
            assert sum(v[i] for v in fan.normals) == 0
        for drop in range(3):
            cols = [list(fan.normals[j]) for j in range(3) if j != drop]
            assert ExactMatrix.from_columns(cols).rank() == 2
        # duals classify into their parts
        for j, part in enumerate(tup.parts):
            for i in part:
                c = fan.classify(pair.dual.points[i])
                assert c == Classification(INTERIOR, j)

    def test_leftover_lands_on_center(self):
        cfg = PointConfig(1, [[1], [2], [3], [4], [5], [6]])
        pair = gale_transform(cfg)
        tup = search_tuple(cfg, 3)
        fan = fan_from_tuple_real(pair, tup)
        leftovers = set(range(6)) - set(tup.support())
        for i in leftovers:
            assert fan.classify(pair.dual.points[i]).kind == CENTER

    def test_round_trip_hundred_random_tuples(self):
        done = 0
        seed = 0
        while done < 100 and seed < 500:
            seed += 1
            made = random_proper_pair(seed)
            if made is None:
                continue
            pair, tup = made
            fan = fan_from_tuple_real(pair, tup)
            back = tuple_from_fan(fan, pair)
            assert back.parts == tup.parts
            assert back.witness.weights == tup.witness.weights
            done += 1
        assert done == 100

    def test_rational_field_required(self):
        i = Cyclotomic.root_of_unity(4)
        cfg = PointConfig(1, [[i * k + 1] for k in range(5)], 4)
        pair = gale_transform(cfg)
        tup = search_tuple(cfg, 3)
        if tup is not None:
            with pytest.raises(PreconditionError):
                fan_from_tuple_real(pair, tup)


def test_constructors_reject_a_corrupted_witness():
    # the public constructors check a caller's tuple: a witness whose
    # common point is moved fails exact re-verification
    for made in (random_proper_pair(1), random_proper_pair(7, True)):
        pair, tup = made
        moved = tuple(c + 1 for c in tup.witness.common_point)
        bad = dataclasses.replace(tup, witness=dataclasses.replace(
            tup.witness, common_point=moved))
        build = (fan_from_tuple_real if pair.primal.conductor is None
                 else fan_from_tuple_complex)
        build(pair, tup)
        with pytest.raises(PreconditionError, match="re-verification"):
            build(pair, bad)


class TestTupleFromFan:
    def test_outside_point_rejected(self):
        fan = RealFan(3, 2, [[1, 0], [0, 1], [-1, -1]], [0, 0, 0])
        cfg = PointConfig(1, [[1], [2], [3], [4], [5]])
        pair = gale_transform(cfg)
        # this synthetic fan cannot distribute the dual of the collinear
        # points; at least one dual point must land outside
        with pytest.raises((PreconditionError, VerificationBug)):
            tuple_from_fan(fan, pair)

    def test_affine_fan_rejected(self):
        fan = RealFan(3, 2, [[1, 0], [0, 1], [-1, -1]], [1, 1, -2])
        cfg = PointConfig(1, [[1], [2], [3], [4], [5]])
        pair = gale_transform(cfg)
        with pytest.raises(PreconditionError):
            tuple_from_fan(fan, pair)


class TestComplexFan:
    def test_omega_and_membership(self):
        N = 4
        i = Cyclotomic.root_of_unity(N)
        fan = ComplexFan(2, N, [Cyclotomic.from_rational(N, 1)], 0)
        # w = conj(x); positive real -> interior(0), negative -> interior(1)
        assert fan.classify([Cyclotomic.from_rational(N, 5)]) == \
            Classification(INTERIOR, 0)
        assert fan.classify([Cyclotomic.from_rational(N, -5)]) == \
            Classification(INTERIOR, 1)
        assert fan.classify([Cyclotomic.from_rational(N, 0)]).kind == CENTER
        c = fan.classify([i])
        assert c.kind == OUTSIDE

    def test_regular_three_fan_membership(self):
        N = 12
        w3 = Cyclotomic.root_of_unity(N, 4)
        fan = ComplexFan(3, N, [Cyclotomic.from_rational(N, 1)], 0)
        # conj(w3^j) lies on the ray of omega^{-j}
        assert fan.classify([w3]).part == 2
        assert fan.classify([w3 * w3]).part == 1
        assert fan.classify([Cyclotomic.from_rational(N, 2)]).part == 0

    def test_tuple_needs_cyclotomic_pair_with_r_dividing_n(self):
        cfg = random_config(7, 2, seed=1)
        tup = search_tuple(cfg, 3)
        with pytest.raises(PreconditionError, match="cyclotomic"):
            fan_from_tuple_complex(gale_transform(cfg), tup)
        pair = gale_transform(random_config(7, 2, field=4, seed=1))
        with pytest.raises(PreconditionError,
                           match="conductor 4 must be divisible by r=3"):
            fan_from_tuple_complex(pair, tup)

    def test_tuple_to_complex_fan(self):
        made = random_proper_pair(7, complex_field=True)
        assert made is not None
        pair, tup = made
        fan = fan_from_tuple_complex(pair, tup)
        for j, part in enumerate(tup.parts):
            for i in part:
                assert fan.classify(pair.dual.points[i]) == \
                    Classification(INTERIOR, j)
        for i in set(range(pair.primal.n)) - set(tup.support()):
            assert fan.classify(pair.dual.points[i]).kind == CENTER

    def test_r2_equivalence_with_proper_partition(self):
        # a complex linear 2-fan distributing duals yields a proper real
        # partition with matching parts (real-hyperplane reading)
        made = random_proper_pair(11, complex_field=True)
        assert made is not None
        pair, tup = made
        fan = fan_from_tuple_complex(pair, tup)
        assert fan.omega(1) == Cyclotomic.from_rational(4, -1)
        from fandist.feaslp import realify
        real = realify(pair.primal)
        w = proper_weights(ProperWeightProblem(real.points, tup.parts))
        assert w is not None

    def test_positive_rational_quotients(self):
        made = random_proper_pair(13, complex_field=True)
        assert made is not None
        pair, tup = made
        fan = fan_from_tuple_complex(pair, tup)
        from fandist.exactnum import hermitian_dot
        for j, part in enumerate(tup.parts):
            for i in part:
                w = hermitian_dot(fan.alpha, pair.dual.points[i]) - fan.beta
                q = w * fan.omega(-j)
                assert is_positive_rational(q) is Positivity.POSITIVE

    def test_foreign_irrational_point_diagnostic(self):
        N = 12
        fan = ComplexFan(3, N, [Cyclotomic.from_rational(N, 1)], 0)
        # zeta_12 + conj(zeta_12) = sqrt(3): real but irrational
        z = Cyclotomic.root_of_unity(N)
        x = z + z.conjugate()
        c = fan.classify([x])
        assert c.kind == OUTSIDE and c.diagnostic == "not-rational-real"

    def test_json_round_trip(self):
        N = 12
        fan = ComplexFan(3, N, [Cyclotomic.root_of_unity(N, 1),
                                Cyclotomic.from_rational(N, 2)], 1)
        back = fan_from_json(fan.to_json())
        assert back.alpha == fan.alpha and back.beta == fan.beta

    def test_field_preconditions(self):
        alpha = [Cyclotomic.root_of_unity(4)]
        with pytest.raises(MalformedFan, match="beta conductor"):
            ComplexFan(2, 4, alpha, Cyclotomic.root_of_unity(3))
        for N in (0, -4):
            with pytest.raises(MalformedFan, match="positive"):
                ComplexFan(2, N, [1], 0)
        fan = ComplexFan(2, 12, [1], 0)
        assert fan.classify([Cyclotomic.root_of_unity(4)]).kind == OUTSIDE
        with pytest.raises(PreconditionError, match="Q\\(zeta_8\\)"):
            fan.classify([Cyclotomic.root_of_unity(8)])


class TestSliceProject:
    def _lifted_run(self, seed):
        # 7 points in R^5: the lifted primal has 8 points with d = 1
        from fandist.genpos import random_config
        X = random_config(7, 5, seed=seed)
        lifted = lift_augment(X)
        pair = gale_pair_from_dual(lifted)
        tup = search_tuple(pair.primal, 3, allowed=range(7))
        assert tup is not None
        return X, lifted, pair, tup

    def test_real_commutation(self):
        X, lifted, pair, tup = self._lifted_run(6)
        fan = fan_from_tuple_real(pair, tup)
        afan = slice_project(fan)
        assert afan.dim == fan.dim - 1
        for i in range(X.n):
            c1 = fan.classify(lifted.points[i])
            c2 = afan.classify(X.points[i])
            assert (c1.kind, c1.part) == (c2.kind, c2.part)

    def test_offsets_sum_zero(self):
        X, lifted, pair, tup = self._lifted_run(8)
        afan = slice_project(fan_from_tuple_real(pair, tup))
        assert sum(afan.offsets, F(0)) == 0

    def test_affine_fan_rejected(self):
        fan = RealFan(3, 2, [[1, 0], [0, 1], [-1, -1]], [1, 1, -2])
        with pytest.raises(PreconditionError):
            slice_project(fan)


class TestTwoFanReport:
    def test_real_pair_cells(self):
        cfg = PointConfig(1, [[i] for i in range(1, 10)])
        pair = gale_transform(cfg)
        t1 = search_tuple(cfg, 3, allowed=[0, 1, 2, 3, 4])
        t2 = search_tuple(cfg, 3, allowed=[4, 5, 6, 7, 8])
        assert t1 is not None and t2 is not None
        f1 = fan_from_tuple_real(pair, t1)
        f2 = fan_from_tuple_real(pair, t2)
        colored = pair.dual.with_coloring([0] * 9)
        rep = verify_report(f1, colored, "two-fan", other_fan=f2)
        # cell counts accounted exactly against both classifications
        total = sum(rep.cell_class_counts.values())
        shared = set(t1.support()) & set(t2.support())
        assert total == len(shared)

    def test_complex_pair_cells(self):
        made1 = random_proper_pair(17, complex_field=True)
        assert made1 is not None
        pair, t1 = made1
        t2 = search_tuple(pair.primal, 2,
                          allowed=sorted(set(range(pair.primal.n))
                                         - {t1.parts[0][0]}))
        if t2 is None:
            pytest.skip("no second tuple on this draw")
        f1 = fan_from_tuple_complex(pair, t1)
        f2 = fan_from_tuple_complex(pair, t2)
        colored = pair.dual.with_coloring([0] * pair.dual.n)
        rep = verify_report(f1, colored, "two-fan", other_fan=f2)
        assert rep.mode == "two-fan"
        assert "second_fan_interiors" in rep.details


class TestVerifyReport:
    def _center_only_config(self):
        fan = RealFan(3, 2, [[1, 0], [0, 1], [-1, -1]], [0, 0, 0])
        cfg = PointConfig(2, [[0, 0], [0, 0], [0, 0]], coloring=[0, 0, 1])
        return fan, cfg

    def test_all_center_passes_everything(self):
        fan, cfg = self._center_only_config()
        rep = verify_report(fan, cfg, "distribute")
        assert rep.passes and rep.center_count == 3
        rep = verify_report(fan, cfg, "equidistribute")
        assert rep.passes and rep.robustness == 0

    def test_threshold_failure(self):
        # r=4 fan in R^4; one interior holding 3 of a 10-point class fails
        fan = RealFan(4, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                             [-1, -1, -1, 0]], [0, 0, 0, 0])
        pts = [[0, 0, 0, 0]] * 7
        # interior(0) of this fan: last coords free on the axis pattern
        inside0 = [[1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0]]
        cfg = PointConfig(4, pts + inside0, coloring=[0] * 10)
        for x in inside0:
            assert fan.classify([F(v) for v in x]) == \
                Classification(INTERIOR, 0)
        rep = verify_report(fan, cfg, "equidistribute")
        assert not rep.passes
        assert any("4*3 > 10" in f for f in rep.failures)

    def test_pierce_single_interior_fails(self):
        fan = RealFan(3, 2, [[1, 0], [0, 1], [-1, -1]], [0, 0, 0])
        cfg = PointConfig(2, [[1, 0], [2, 0], [0, 0]])
        fam = SetFamily(3, [[0, 1]])
        rep = verify_report(fan, cfg, "pierce", family=fam)
        assert not rep.passes
        assert rep.details["members_inside_one_interior"] == [[0, 1]]

    def test_pierce_center_meets_all(self):
        fan = RealFan(3, 2, [[1, 0], [0, 1], [-1, -1]], [0, 0, 0])
        cfg = PointConfig(2, [[1, 0], [0, 0]])
        fam = SetFamily(2, [[0, 1]])
        rep = verify_report(fan, cfg, "pierce", family=fam)
        assert rep.passes
        assert rep.details["closed_halfflat_meets"]["[0, 1]"] == 3

    def test_rainbow_mode(self):
        fan = RealFan(3, 2, [[1, 0], [0, 1], [-1, -1]], [0, 0, 0])
        cfg = PointConfig(2, [[1, 0], [2, 0], [0, 0]], coloring=[0, 0, 1])
        rep = verify_report(fan, cfg, "rainbow")
        assert not rep.passes  # two class-0 points in interior(0)

    def test_outside_fails_distribute(self):
        fan = RealFan(3, 2, [[1, 0], [0, 1], [-1, -1]], [0, 0, 0])
        cfg = PointConfig(2, [[1, 1]])
        rep = verify_report(fan, cfg, "distribute")
        assert not rep.passes

    @pytest.mark.parametrize("mode", ["distribute", "equidistribute",
                                      "pierce", "rainbow"])
    def test_second_fan_outside_two_fan_mode_refused(self, mode):
        fan, cfg = self._center_only_config()
        fam = SetFamily(3, [[0]])
        with pytest.raises(PreconditionError,
                           match="only two-fan mode reads a second fan"):
            verify_report(fan, cfg, mode, family=fam, other_fan=fan)

    @pytest.mark.parametrize("mode", ["distribute", "equidistribute",
                                      "rainbow"])
    def test_family_outside_pierce_and_two_fan_refused(self, mode):
        fan, cfg = self._center_only_config()
        with pytest.raises(PreconditionError, match="only pierce and two-fan"):
            verify_report(fan, cfg, mode, family=SetFamily(3, [[0]]))

    @pytest.mark.parametrize("mode, family", [
        ("pierce", SetFamily(12, [[4], [10]])),
        ("two-fan", SetFamily(12, [[10]])),
        ("pierce", SetFamily(5, [[0, 1]])),
    ], ids=["member-past-n", "two-fan-member-past-n", "smaller-ground-set"])
    def test_family_over_another_ground_set_refused(self, mode, family):
        X = random_config(7, 5, seed=1)
        fan = equidistribute(X, 3).affine_fan
        other = fan if mode == "two-fan" else None
        with pytest.raises(PreconditionError, match="family ground set"):
            verify_report(fan, X, mode, family=family, other_fan=other)


def verify_report_oracle(fan, config, mode, *, family=None, other_fan=None):
    """A reference implementation of ``verify_report``, kept for comparison:
    each mode's cells counted by its own rescan of the classifications."""
    if mode not in ("distribute", "equidistribute", "pierce", "rainbow",
                    "two-fan"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if other_fan is not None and mode != "two-fan":
        raise PreconditionError("only two-fan mode reads a second fan")
    if family is not None and mode not in ("pierce", "two-fan"):
        raise PreconditionError("only pierce and two-fan modes read a family")
    coloring = config.coloring or [0] * config.n
    sizes = config.class_sizes()
    ncls = len(sizes)
    cls1 = [fan.classify(x) for x in config.points]
    failures = []
    details = {}

    r = fan.r
    center = sum(1 for c in cls1 if c.kind == CENTER)
    interiors = [sum(1 for c in cls1 if c.kind == INTERIOR and c.part == j)
                 for j in range(r)]
    outside = [i for i, c in enumerate(cls1) if c.kind == OUTSIDE]
    diagnostics = [i for i, c in enumerate(cls1) if c.diagnostic]
    if diagnostics:
        details["diagnostics"] = {
            str(i): cls1[i].diagnostic for i in diagnostics}
    if outside:
        failures.append(f"points outside the fan: {outside}")

    cell_counts = {}
    if mode == "two-fan":
        if other_fan is None:
            raise PreconditionError("two-fan mode needs the second fan")
        cls2 = [other_fan.classify(x) for x in config.points]
        out2 = [i for i, c in enumerate(cls2) if c.kind == OUTSIDE]
        if out2:
            failures.append(f"points outside the second fan: {out2}")
        for i in range(r):
            for j in range(other_fan.r):
                cell = [p for p in range(config.n)
                        if cls1[p].kind == INTERIOR and cls1[p].part == i
                        and cls2[p].kind == INTERIOR and cls2[p].part == j]
                for k in range(ncls):
                    cnt = sum(1 for p in cell if coloring[p] == k)
                    cell_counts[f"({i},{j},{k})"] = cnt
                    if family is None and r * r * cnt > sizes[k]:
                        failures.append(
                            f"cell ({i},{j}) holds {cnt} of class {k}: "
                            f"{r * r}*{cnt} > {sizes[k]}")
                if family is not None:
                    cellset = set(cell)
                    for m in family.members:
                        if set(m) <= cellset:
                            failures.append(
                                f"family member {list(m)} sits inside "
                                f"cell ({i},{j})")
        details["second_fan_interiors"] = [
            sum(1 for c in cls2 if c.kind == INTERIOR and c.part == j)
            for j in range(other_fan.r)]
        details["second_fan_center"] = sum(
            1 for c in cls2 if c.kind == CENTER)
    else:
        for j in range(r):
            for k in range(ncls):
                cnt = sum(1 for p in range(config.n)
                          if cls1[p].kind == INTERIOR and cls1[p].part == j
                          and coloring[p] == k)
                cell_counts[f"({j},{k})"] = cnt

    if mode == "equidistribute":
        for j in range(r):
            for k in range(ncls):
                cnt = cell_counts[f"({j},{k})"]
                if r * cnt > sizes[k]:
                    failures.append(
                        f"half-flat {j} holds {cnt} of class {k}: "
                        f"{r}*{cnt} > {sizes[k]}")
    elif mode == "rainbow":
        for j in range(r):
            for k in range(ncls):
                if cell_counts[f"({j},{k})"] > 1:
                    failures.append(
                        f"half-flat {j} holds more than one of class {k}")
    elif mode == "pierce":
        if family is None:
            raise PreconditionError("pierce mode needs the family")
        meets = {}
        contained = []
        for m in family.members:
            tags = set()
            any_center = False
            for i in m:
                if cls1[i].kind == CENTER:
                    any_center = True
                elif cls1[i].kind == INTERIOR:
                    tags.add(cls1[i].part)
            count = r if any_center else len(tags)
            meets[str(list(m))] = count
            if count < 2:
                failures.append(
                    f"family member {list(m)} meets only {count} "
                    "closed half-flats")
            if not any_center and len(tags) == 1 and \
                    all(cls1[i].kind == INTERIOR for i in m):
                contained.append(list(m))
        details["closed_halfflat_meets"] = meets
        details["members_inside_one_interior"] = contained

    robustness = sum(interiors)
    passes = not failures
    return VerificationReport(
        mode=mode, r=r, passes=passes, center_count=center,
        interior_counts=tuple(interiors), cell_class_counts=cell_counts,
        robustness=robustness, class_sizes=tuple(sizes),
        failures=tuple(failures), details=details)


def real_point(draw, fan):
    """A point free, on the center or on the flat of one half-flat, so
    that every classification occurs."""
    free = draw(st.lists(fracs, min_size=fan.dim, max_size=fan.dim))
    kind = draw(st.sampled_from(("free", "center", "flat", "flat")))
    if kind == "free":
        return free
    j = draw(st.integers(0, fan.r - 1))
    on = range(fan.r) if kind == "center" else \
        [k for k in range(fan.r) if k not in (j, (j - 1) % fan.r)]
    A = ExactMatrix([fan.normals[k] for k in on])
    x = A.solve([fan.offsets[k] for k in on])
    if x is None:
        return free
    for u, t in zip(A.kernel_basis(), free):
        x = [a + t * b for a, b in zip(x, u)]
    return list(x)


def complex_point(draw, fan):
    """A point whose functional value is beta + t omega^j, t of either
    sign or zero, or a free point (often not rational-real)."""
    N = fan.N
    coeff = st.lists(fracs, max_size=3).map(lambda cs: Cyclotomic(N, cs))
    x = draw(st.lists(coeff, min_size=fan.dim, max_size=fan.dim))
    if draw(st.booleans()):
        return x
    target = fan.beta + draw(fracs) * fan.omega(draw(st.integers(0, fan.r)))
    return with_value(fan.alpha, target, x)


@st.composite
def report_inputs(draw):
    """A fan, a second fan (the first relabelled or rescaled, or drawn
    apart, or None), a colored config with points of every
    classification, a family (usually) and a mode."""
    if draw(st.booleans()):
        fan = draw(real_fans())
        s = draw(st.integers(0, fan.r - 1))
        other = RealFan(fan.r, fan.dim, fan.normals[s:] + fan.normals[:s],
                        fan.offsets[s:] + fan.offsets[:s])
        if draw(st.booleans()):
            other = draw(real_fans())
            assume(other.dim == fan.dim)
        make = real_point
    else:
        fan = draw(complex_fans())
        q = draw(st.sampled_from((1, 2, -1)))
        other = ComplexFan(draw(st.sampled_from(
            [k for k in range(2, fan.N + 1) if fan.N % k == 0])), fan.N,
            [a * q for a in fan.alpha], fan.beta * draw(st.sampled_from(
                (q, 1))))
        make = complex_point
    n = draw(st.integers(1, 8))
    pts = [make(draw, draw(st.sampled_from((fan, other))))
           for _ in range(n)]
    coloring = draw(st.none() | st.lists(st.integers(0, 2), min_size=n,
                                         max_size=n))
    config = PointConfig(fan.dim, pts, getattr(fan, "N", None), coloring)
    family = SetFamily(n, draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=3),
        min_size=1, max_size=4)))
    if draw(st.integers(0, 4)) == 0:
        family = None
    mode = draw(st.sampled_from(
        ("distribute", "equidistribute", "pierce", "rainbow", "two-fan")))
    # one draw in ten drops the second fan of two-fan mode, or keeps an
    # input that the mode does not read (and so refuses)
    odd = draw(st.integers(0, 9)) == 0
    if (mode == "two-fan") == odd:
        other = None
    if mode not in ("pierce", "two-fan") and not odd:
        family = None
    return fan, config, mode, family, other


def report_or_error(verify, fan, config, mode, family, other):
    try:
        return canonical_json(verify(fan, config, mode, family=family,
                                     other_fan=other).to_json())
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(report_inputs())
def test_verify_report_matches_oracle(case):
    assert report_or_error(verify_report, *case) == \
        report_or_error(verify_report_oracle, *case)


# -- a verified fan with one point moved --------------------------------------

VERIFIED = {
    "desk": ((10, 8), {"seed": 4000}, 4),
    "desk-colored": ((10, 8), {"seed": 4001, "coloring": [0] * 5 + [1] * 5},
                     4),
    "complex": ((6, 4), {"field": 4, "seed": 7300,
                         "coloring": [0, 0, 0, 1, 1, 1]}, 2),
}


@lru_cache(maxsize=None)
def verified_result(key):
    """(X, equidistribute(X, r)) for one desk or complex input."""
    shape, kwargs, r = VERIFIED[key]
    X = random_config(*shape, **kwargs)
    return X, equidistribute(X, r)


def point_at(fan, kind, j, t, free):
    """A point on the center of fan, t > 0 into the interior of half-flat
    j, or t off the fan next to half-flat j.  A real point moves along
    the center by the coefficients free; a complex point keeps the
    coordinates free except the first that alpha weights."""
    if isinstance(fan, RealFan):
        A = ExactMatrix([list(v) for v in fan.normals])
        x = list(A.solve(list(fan.offsets)))
        for u, c in zip(A.kernel_basis(), free):
            x = [a + c * b for a, b in zip(x, u)]
        if kind != CENTER:
            # v_k u = 0 off j and j-1, v_j u = 1, so v_(j-1) u = -1
            rows = [k for k in range(fan.r) if k != (j - 1) % fan.r]
            u = ExactMatrix([fan.normals[k] for k in rows]).solve(
                [int(k == j) for k in rows])
            s = t if kind == INTERIOR else -t
            x = [a + s * b for a, b in zip(x, u)]
        return tuple(x)
    w = Cyclotomic.from_rational(fan.N, 0)
    if kind == INTERIOR:
        w = t * fan.omega(j)
    elif kind == OUTSIDE:
        w = t * (2 + Cyclotomic.root_of_unity(fan.N))
    return tuple(with_value(fan.alpha, fan.beta + w, free))


@st.composite
def moved_points(draw, key):
    """A verified result and one of its points moved into another
    half-flat, onto the center, or outside the fan."""
    X, res = verified_result(key)
    fan = res.affine_fan
    kind = draw(st.sampled_from((INTERIOR, CENTER, OUTSIDE)))
    p = draw(st.sampled_from([p for p, x in enumerate(X.points)
                              if kind != CENTER
                              or fan.classify(x).kind != CENTER]))
    old = fan.classify(X.points[p])
    j = None if kind == CENTER else draw(st.sampled_from(
        [j for j in range(fan.r)
         if kind == OUTSIDE or old != Classification(INTERIOR, j)]))
    t = draw(st.builds(F, st.integers(1, 9), st.integers(1, 7)))
    free = X.points[p] if isinstance(fan, ComplexFan) else \
        draw(st.lists(fracs, min_size=X.dim, max_size=X.dim))
    x = point_at(fan, kind, j, t, free)
    moved = PointConfig(X.dim, X.points[:p] + (x,) + X.points[p + 1:],
                        X.conductor, X.coloring)
    return X, res, moved, p, kind, j


@pytest.mark.parametrize("key", sorted(VERIFIED))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_moved_point_changes_report_by_that_point(key, data):
    X, res, moved, p, kind, j = data.draw(moved_points(key))
    fan, rep = res.affine_fan, res.report
    assert rep.passes
    old, new = fan.classify(X.points[p]), fan.classify(moved.points[p])
    assert new.kind == kind and (kind != INTERIOR or new.part == j)
    got = verify_report(fan, moved, rep.mode)

    assert got.center_count == \
        rep.center_count - (old.kind == CENTER) + (new.kind == CENTER)
    assert got.interior_counts == tuple(
        n - (old == Classification(INTERIOR, k))
        + (new == Classification(INTERIOR, k))
        for k, n in enumerate(rep.interior_counts))
    color = (X.coloring or [0] * X.n)[p]
    cells = dict(rep.cell_class_counts)
    if old.kind == INTERIOR:
        cells[f"({old.part},{color})"] -= 1
    if new.kind == INTERIOR:
        cells[f"({new.part},{color})"] += 1
    assert got.cell_class_counts == cells

    capped = all(fan.r * cells[f"({k},{c})"] <= size
                 for k in range(fan.r)
                 for c, size in enumerate(rep.class_sizes))
    assert got.passes == (capped and new.kind != OUTSIDE)
    assert (f"points outside the fan: [{p}]" in got.failures) == \
        (new.kind == OUTSIDE)
