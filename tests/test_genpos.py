import hashlib
import random
from collections import namedtuple
from fractions import Fraction as F
from itertools import combinations, product
from typing import Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fandist.errors import PreconditionError, SizeGateExceeded
from fandist.exactnum import ExactMatrix
from fandist.feaslp import Flat, affine_hull, integer_grid
from fandist.galedual import (
    PointConfig,
    gale_pair_from_dual,
    gale_transform,
    lift_augment,
)
from fandist import genpos
from fandist.genpos import (
    SgpReport,
    build_counterexample,
    check_sgp,
    corresponding_primal,
    found_equidistributing_tuple,
    is_typical,
    random_config,
    robustness_check,
    verify_no_equidistribution,
)
from fandist.pipeline import canonical_json


class TestCheckSgp:
    def test_affinely_independent_passes(self):
        cfg = PointConfig(2, [[0, 0], [1, 0], [0, 1]])
        assert check_sgp(cfg).verdict

    def test_coincident_points_fail_ordinary(self):
        cfg = PointConfig(2, [[1, 1], [1, 1], [0, 3], [5, 2]])
        rep = check_sgp(cfg)
        assert not rep.verdict
        assert rep.reason == "ordinary general position fails"

    def test_random_points_pass(self):
        for seed in range(20):
            cfg = random_config(6, 2, seed=seed)
            assert check_sgp(cfg).verdict, seed

    def test_engineered_sgp_failure(self):
        # two parallel segment lines in R^2: ordinary general position
        # holds, yet the hulls miss although the codim sum is only d
        cfg = PointConfig(2, [[0, 0], [1, 0], [0, 1], [1, 1]])
        rep = check_sgp(cfg)
        assert not rep.verdict
        assert rep.reason == "empty intersection below codim budget"
        parts = rep.violating_parts
        assert rep.codim_sum == 2 and rep.intersection_codim == 3
        # re-verify the witness on the integer grid (a uniform scaling
        # keeps every rank and every emptiness fact): recompute the affine
        # hulls' constraint ranks and the (in)consistency of the stacked
        # system
        grid = integer_grid(cfg.points)
        rows, rhs, csum = [], [], 0
        for part in parts:
            eqs = affine_hull(grid, part).rows
            csum += len(eqs)
            for vec in eqs:
                rows.append(list(vec[:2]))
                rhs.append(vec[2])
        assert csum == rep.codim_sum
        E = ExactMatrix(rows)
        aug = ExactMatrix([r + [b] for r, b in zip(rows, rhs)])
        assert aug.rank() > E.rank()  # genuinely empty intersection

    def test_gate(self):
        cfg = random_config(11, 2, seed=0)
        with pytest.raises(SizeGateExceeded):
            check_sgp(cfg)

    def test_cyclotomic_rejected(self):
        cfg = random_config(4, 1, field=4, seed=0)
        with pytest.raises(PreconditionError):
            check_sgp(cfg)


# The strong-general-position check as it stood before the prefix
# recursion, kept as an oracle: verbatim except that it returns the
# _Report tuple below (the removed max_parts field included).
_Report = namedtuple("_Report", "verdict n dim max_parts violating_parts "
                     "intersection_codim codim_sum reason",
                     defaults=(None, None, None, ""))


def _ordinary_general_position(config: PointConfig):
    d, n = config.dim, config.n
    k = min(n, d + 1)
    for sub in combinations(range(n), k):
        rows = [list(config.points[i]) + [F(1)] for i in sub]
        if ExactMatrix(rows).rank() != k:
            return sub
    return None


def reference_check_sgp(config: PointConfig,
                        max_parts: Optional[int] = None) -> _Report:
    n, d = config.n, config.dim
    if max_parts is None:
        max_parts = n
    bad = _ordinary_general_position(config)
    if bad is not None:
        return _Report(False, n, d, max_parts, (tuple(bad),), None, None,
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
                    return _Report(False, n, d, max_parts, parts,
                                   flat.codim, csum,
                                   "codimension equation fails")
            else:
                if csum <= d:
                    return _Report(False, n, d, max_parts, parts,
                                   d + 1, csum,
                                   "empty intersection below codim budget")
    return _Report(True, n, d, max_parts)


def _grid_config(rng):
    """n <= 8 integer points in [-k, k]^d, d <= 3, k small: repeats,
    collinear triples and parallel hulls are common."""
    d = rng.randint(1, 3)
    n = rng.randint(d + 1, 8)
    k = rng.choice([1, 2, 4])
    return PointConfig(d, [[rng.randint(-k, k) for _ in range(d)]
                           for _ in range(n)])


def _segments_config(rng):
    """Two to four point pairs in the plane whose segments all pass
    through one common point c (q = c + s (c - p), s > 0), plus random
    points, shuffled.  (In R^3 two such segments are coplanar, so
    ordinary general position would always fail.)"""
    c = [F(rng.randint(-2, 2)) for _ in range(2)]
    pts = []
    for _ in range(rng.randint(2, 4)):
        p = c
        while p == c:
            p = [F(rng.randint(-9, 9)) for _ in range(2)]
        s = F(rng.randint(1, 9), rng.randint(1, 9))
        pts += [p, [ci + s * (ci - pi) for ci, pi in zip(c, p)]]
    for _ in range(rng.randint(0, 8 - len(pts))):
        pts.append([F(rng.randint(-9, 9), rng.randint(1, 3))
                    for _ in range(2)])
    rng.shuffle(pts)
    return PointConfig(2, pts)


def _planted_config(rng):
    """3 <= n <= 8 grid points in d <= 3 with a repeated point or a third
    point on the line through two others planted among them."""
    d = rng.randint(1, 3)
    n = rng.randint(max(3, d + 1), 8)
    pts = [[F(rng.randint(-4, 4)) for _ in range(d)] for _ in range(n)]
    i, j, k = rng.sample(range(n), 3)
    if rng.random() < 0.5:
        pts[k] = list(pts[i])
    else:
        t = F(rng.randint(-3, 3), rng.randint(1, 3))
        pts[k] = [a + t * (b - a) for a, b in zip(pts[i], pts[j])]
    return PointConfig(d, pts)


def _assert_matches_reference(cfg):
    rep, ref = check_sgp(cfg), reference_check_sgp(cfg)
    assert (rep.verdict, rep.n, rep.dim, rep.violating_parts,
            rep.intersection_codim, rep.codim_sum, rep.reason) == (
        ref.verdict, ref.n, ref.dim, ref.violating_parts,
        ref.intersection_codim, ref.codim_sum, ref.reason)
    assert rep.to_json()["max_parts"] == ref.max_parts
    return rep


class TestSgpOracle:
    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_matches_reference(self, rng, degenerate):
        _assert_matches_reference(
            (_segments_config if degenerate else _grid_config)(rng))

    def test_every_outcome_matches_reference(self):
        # seeded, so a pruning fault that changes any of these reports
        # (pruning a prefix at codim sum >= d, say) fails every run; the
        # planted repeats and collinear points fail ordinary general
        # position, which check_sgp tests only after its recursion
        reasons = set()
        for seed in range(100):
            for build in (_grid_config, _segments_config, _planted_config):
                rep = _assert_matches_reference(build(random.Random(seed)))
                reasons.add(rep.reason)
        assert reasons == {"", "ordinary general position fails",
                           "empty intersection below codim budget",
                           "codimension equation fails"}


def hull_ogp_oracle(grid, d):
    """The first k = min(n, d+1) grid points whose affine hull has
    codimension above d+1-k, or None."""
    k = min(len(grid), d + 1)
    for sub in combinations(range(len(grid)), k):
        if k and affine_hull(grid, sub).codim != d + 1 - k:
            return sub
    return None


@pytest.mark.parametrize("seed", range(40))
def test_ordinary_general_position_matches_hull_oracle(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 4)
    k = rng.choice([1, 2, 9])
    grid = [[rng.randint(-k, k) for _ in range(d)]
            for _ in range(rng.randint(1, 8))]
    if seed % 4 == 0:
        grid.append(list(rng.choice(grid)))
    assert genpos._ordinary_general_position(grid, d) == \
        hull_ogp_oracle(grid, d)


# check_sgp as it was before its levels stopped at r = d + 1, walking
# every level r = 2 .. n: verbatim but for the module prefixes
def full_level_check_sgp(config: PointConfig) -> SgpReport:
    n, d = config.n, config.dim
    grid = integer_grid(config.points)
    bad = genpos._ordinary_general_position(grid, d)
    if bad is not None:
        return SgpReport(False, n, d, (bad,), None, None,
                         "ordinary general position fails")

    hulls: dict[tuple, Flat] = {}

    def violation(avail, left, flat, csum, chosen):
        for size in range(1, d + 1):
            for part in combinations(avail, size):
                h = hulls.get(part)
                if h is None:
                    h = hulls[part] = affine_hull(grid, part)
                total = csum + h.codim
                if left == 1:
                    added = flat.added_rank(h)
                    if added is None:
                        if total <= d:
                            return SgpReport(
                                False, n, d, chosen + (part,), d + 1, total,
                                "empty intersection below codim budget")
                    elif flat.codim + added != total:
                        return SgpReport(False, n, d, chosen + (part,),
                                         flat.codim + added, total,
                                         "codimension equation fails")
                elif total <= d:
                    rest = [i for i in avail if i > part[0] and i not in part]
                    found = violation(rest, left - 1, flat.meet(h), total,
                                      chosen + (part,))
                    if found is not None:
                        return found
        return None

    whole = Flat.from_rows([], d)
    for r in range(2, n + 1):
        found = violation(list(range(n)), r, whole, 0, ())
        if found is not None:
            return found
    return SgpReport(True, n, d)


@st.composite
def small_bit_configs(draw):
    """d <= 3 and n <= 7 integer points of 2 or 4 coordinate bits: the
    2-bit ones mostly fail, the 4-bit ones mostly pass."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, 7))
    half = draw(st.sampled_from([2, 8]))
    coord = st.integers(-half, half - 1)
    return PointConfig(d, draw(st.lists(
        st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_bit_configs(),
                 st.randoms(use_true_random=False).map(_segments_config)))
def test_sgp_levels_past_d_plus_one_cannot_fail(cfg):
    # every part has codim >= 1 and a prefix is recursed into only while
    # its codim sum is <= d, so the levels r >= d + 2 never reach a last
    # part: stopping at d + 1 gives the same report.  Concurrent segments
    # fail at level d + 1 = 3
    assert check_sgp(cfg) == full_level_check_sgp(cfg)


@st.composite
def spanning_rational_configs(draw):
    D = draw(st.integers(1, 3))
    n = draw(st.integers(D + 2, D + 5))
    coord = st.builds(F, st.integers(-9, 9), st.integers(1, 7))
    pts = draw(st.lists(st.lists(coord, min_size=D, max_size=D),
                        min_size=n, max_size=n))
    X = PointConfig(D, pts)
    assume(X.affinely_spanning())
    return X


class TestCorrespondingPrimal:
    @settings(max_examples=100, deadline=None)
    @given(spanning_rational_configs())
    def test_pipeline_pair_has_the_same_primal(self, X):
        # the pipelines decide typicality from their own pair's primal
        pair = gale_pair_from_dual(lift_augment(X))
        primal = corresponding_primal(X)
        assert primal.points == pair.primal.points[:X.n]
        assert corresponding_primal(X, pair.primal) == primal
        assert is_typical(X, primal=pair.primal) == is_typical(X)

    def test_dimensions(self):
        X = random_config(6, 3, seed=1)
        primal = corresponding_primal(X)
        assert primal.n == 6 and primal.dim == 2

    def test_collinear_example(self):
        X = PointConfig(1, [[0], [1], [2]])
        primal = corresponding_primal(X)
        assert primal.n == 3 and primal.dim == 1

    def test_dropped_point_is_the_average(self):
        # the height-one form of the dual forces the appended primal
        # point to be the average of the others, exactly
        from fandist.galedual import inverse_gale, lift_augment
        X = random_config(6, 3, seed=14)
        full = inverse_gale(lift_augment(X))
        n = X.n
        for c in range(full.dim):
            avg = sum(full.points[i][c] for i in range(n)) / n
            assert full.points[n][c] == avg

    def test_round_trip_through_gale_pair(self):
        # the corresponding primal affinely spans and its own dual
        # reproduces the lifted configuration up to a linear isomorphism
        from fandist.galedual import lift_augment, linear_change_of_basis
        X = random_config(6, 3, seed=9)
        primal = corresponding_primal(X)
        assert primal.affinely_spanning()
        avg = [sum(p[i] for p in primal.points) / 6
               for i in range(primal.dim)]
        full = PointConfig(primal.dim, list(primal.points) + [avg])
        pair = gale_transform(full)
        T = linear_change_of_basis(pair.dual.points,
                                   lift_augment(X).points)
        assert T is not None

    def test_general_position_transfers(self):
        from itertools import combinations

        def ordinary_gp(cfg):
            k = min(cfg.n, cfg.dim + 1)
            for sub in combinations(range(cfg.n), k):
                rows = [list(cfg.points[i]) + [F(1)] for i in sub]
                if ExactMatrix(rows).rank() != k:
                    return False
            return True

        for seed in range(8):
            X = random_config(6, 3, seed=30 + seed)
            primal = corresponding_primal(X)
            assert ordinary_gp(X) == ordinary_gp(primal)


class TestIsTypical:
    def test_random_typical(self):
        for seed in range(20):
            X = random_config(6, 3, seed=seed)
            assert is_typical(X), seed

    def test_repeated_point_not_typical(self):
        X = random_config(6, 3, seed=2)
        pts = [list(p) for p in X.points]
        pts[-1] = list(pts[0])
        assert not is_typical(PointConfig(3, pts))

    def test_dual_of_sgp_primal_is_typical(self):
        # build the height-one dual of a strong-general-position primal by
        # pinning the (1,..,1,-n) kernel vector, then check typicality
        from fandist.exactnum import ExactMatrix
        from fandist.galedual import gale_transform

        for seed in range(6):
            primal = random_config(6, 2, seed=60 + seed)
            if not check_sgp(primal).verdict:
                continue
            n = primal.n
            avg = [sum(p[i] for p in primal.points) / n
                   for i in range(primal.dim)]
            full = PointConfig(primal.dim, list(primal.points) + [avg])
            pair = gale_transform(full)
            kb = [list(b) for b in zip(*pair.dual.points)]
            special = [F(1)] * n + [F(-n)]
            # exchange the special vector into the basis, last position
            W = ExactMatrix.from_columns(kb)
            coeff = W.solve(special)
            swap = next(i for i, c in enumerate(coeff) if c != 0)
            basis = [kb[i] for i in range(len(kb)) if i != swap] + [special]
            # dual columns now end in 1 (resp. -n): read off the x_i
            xs = [[basis[k][j] for k in range(len(basis) - 1)]
                  for j in range(n)]
            X = PointConfig(len(basis) - 1, xs)
            assert is_typical(X), seed

    def test_counterexample_instance_not_typical(self):
        inst = build_counterexample(3, 2, 1, 0, 3, seed=0)
        # the origin sits in the configuration: ordinary general position
        # fails on the dual side, so the corresponding primal is not SGP
        assert not is_typical(inst.config, gate=12)


class TestRobustness:
    class _Rep:
        def __init__(self, rob):
            self.robustness = rob

    def test_real_bound(self):
        assert robustness_check(self._Rep(7), 4, 1, False)
        assert not robustness_check(self._Rep(6), 4, 1, False)

    def test_complex_bound(self):
        # (r-1)(2d+1)+1 = 4 at r=2, d=1
        assert robustness_check(self._Rep(4), 2, 1, True)
        assert not robustness_check(self._Rep(3), 2, 1, True)


class TestRandomConfig:
    def test_deterministic(self):
        a = random_config(5, 2, seed=77)
        b = random_config(5, 2, seed=77)
        assert a == b

    def test_spanning_and_bits(self):
        for seed in range(30):
            cfg = random_config(4, 3, bits=4, seed=seed)
            assert cfg.affinely_spanning()
            for p in cfg.points:
                for c in p:
                    assert abs(c.numerator) < 16 * 16  # reduced form bound
                    assert 0 < c.denominator < 16

    def test_cyclotomic_field(self):
        cfg = random_config(5, 3, field=4, seed=1)
        assert cfg.conductor == 4
        assert cfg.affinely_spanning()


# sha256 of the canonical JSON of build_counterexample(3, 2, 1, 0, 4,
# seed=1), as the sampler drew it when it still held a strong general
# position branch
COUNTEREXAMPLE_SHA256 = (
    "417b4f1149b73e1ac697195c6efc01ddd0046dae4e790f9c34eac4f1ec9ddc55")


class TestCounterexample:
    def test_parameters_and_shape(self):
        inst = build_counterexample(3, 2, 1, 0, 3, seed=1)
        assert inst.config.n == 12 and inst.config.dim == 7
        assert inst.config.class_sizes() == [10, 2]
        assert inst.config.coloring[-1] == 1
        assert all(c == 0 for c in inst.config.points[-1])
        assert inst.lifted_primal.n == 12 and inst.lifted_primal.dim == 4

    def test_k_max_needs_larger_ell(self):
        with pytest.raises(PreconditionError):
            build_counterexample(3, 2, 1, 2, 3, seed=0)  # k=r-1 forces ell>3
        inst = build_counterexample(3, 2, 1, 2, 4, seed=0)
        assert inst.config.n == (2 * 4 + 2 + 1) + 4

    def test_instance_json(self):
        inst = build_counterexample(3, 2, 1, 0, 3, seed=1)
        out = inst.to_json()
        assert out["params"]["ell"] == 3
        assert PointConfig.from_json(out["config"]) == inst.config

    def test_vacuous_when_class_one_small(self):
        inst = build_counterexample(3, 2, 1, 0, 3, seed=1)
        tiny = PointConfig(inst.config.dim, inst.config.points,
                           coloring=[1] * 10 + [0, 0])
        from dataclasses import replace
        small = replace(inst, config=tiny)
        assert verify_no_equidistribution(small) is True

    def test_minimal_ell_admits_equidistribution(self):
        # the minimal ell=3 parameters do not certify: a capped tuple
        # exists and is returned as the explicit counter-witness
        inst = build_counterexample(3, 2, 1, 0, 3, seed=1)
        assert verify_no_equidistribution(inst) is False
        tup = found_equidistributing_tuple(inst)
        assert tup is not None
        c1 = set(inst.class_one())
        assert all(set(p) <= c1 and len(p) <= 3 for p in tup.parts)

    def test_admissible_size_admits_tuples(self):
        # at these sizes a capped tuple exists, so the exhaustive decision
        # comes back False and returns the witness
        inst = build_counterexample(3, 2, 1, 0, 3, seed=1)
        assert found_equidistributing_tuple(inst) is not None

    def test_every_admitted_sample_is_above_the_sgp_gate(self, monkeypatch):
        # the sample has (r-1)(d+m+1) + k + ell >= 11 points, so
        # strong general position is never checkable on it
        class Sampled(Exception):
            pass

        def sampled(n, *args, **kwargs):
            raise Sampled(n)

        monkeypatch.setattr(genpos, "random_config", sampled)
        for r in range(3, 8):
            for m, d, k in product(range(2, 6), range(1, 6), range(r)):
                least = genpos.least_ell(r, k)
                for ell in range(least, least + 3):
                    with pytest.raises(Sampled) as drawn:
                        build_counterexample(r, m, d, k, ell)
                    assert drawn.value.args[0] > genpos.SGP_GATE

    def test_instance_json_is_pinned(self):
        out = build_counterexample(3, 2, 1, 0, 4, seed=1).to_json()
        assert out["sgp_verified"] is False
        assert hashlib.sha256(canonical_json(out).encode()).hexdigest() == \
            COUNTEREXAMPLE_SHA256


@pytest.mark.slow
class TestCounterexampleExhaustive:
    def test_ell_four_certifies(self):
        # with ell=4 the corrected dimension count empties every capped
        # candidate; the exhaustive search certifies it
        inst = build_counterexample(3, 2, 1, 0, 4, seed=1)
        assert verify_no_equidistribution(inst) is True

    def test_bound_sandwich_row(self):
        # one data point of the size bracket: the lower-bound run
        # succeeds at n = d+s+1 and the upper side certifies once the
        # instance escalates to the working ell
        from fandist.pipeline import bounds_experiment
        rows = bounds_experiment(3, 2, [7], [0, 1], max_ell_extra=1)
        row = rows[0]
        assert row["lower_successes"] == 2
        assert row["certified_ell"] == 4
        assert row["n_lower"] <= row["upper_points"]
