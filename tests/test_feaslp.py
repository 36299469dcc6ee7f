import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fandist
from fandist import feaslp
from fandist.errors import PreconditionError, VerificationBug
from fandist.exactnum import Cyclotomic
from fandist.feaslp import (
    ExactWeightSolver,
    ProperWeightProblem,
    WeightWitness,
    proper_weights,
    realify,
)
from fandist.galedual import PointConfig


def vertex_enumeration_oracle(points, parts):
    """Independent feasibility decision by exhaustive vertex enumeration.

    Maximizes eps over the polytope {E t = b, t_i >= eps, eps >= 0} by
    solving every square active-set subsystem; proper iff the maximum is
    strictly positive.
    """
    support = sorted(set().union(*[set(p) for p in parts]))
    col = {i: k for k, i in enumerate(support)}
    nv = len(support) + 1  # weights plus eps
    dim = len(points[0])
    rows, rhs = [], []
    for part in parts:
        row = [F(0)] * nv
        for i in part:
            row[col[i]] = F(1)
        rows.append(row)
        rhs.append(F(1))
    for part in parts[1:]:
        for c in range(dim):
            row = [F(0)] * nv
            for i in part:
                row[col[i]] += F(points[i][c])
            for i in parts[0]:
                row[col[i]] -= F(points[i][c])
            rows.append(row)
            rhs.append(F(0))
    # inequality rows: t_i - eps >= 0 for each i, and eps >= 0
    ineqs = []
    for k in range(len(support)):
        row = [F(0)] * nv
        row[k] = F(1)
        row[-1] = F(-1)
        ineqs.append((row, F(0)))
    last = [F(0)] * nv
    last[-1] = F(1)
    ineqs.append((last, F(0)))

    from fandist.exactnum import ExactMatrix
    # a vertex needs enough active inequalities to reach full rank with
    # the (possibly redundant) equality rows
    need = nv - ExactMatrix(rows).rank()
    best = None
    if need < 0:
        need = 0
    for active in combinations(range(len(ineqs)), need):
        sys_rows = [list(r) for r in rows] + \
            [list(ineqs[i][0]) for i in active]
        sys_rhs = list(rhs) + [ineqs[i][1] for i in active]
        M = ExactMatrix(sys_rows)
        if M.rank() != nv:
            continue
        sol = M.solve(sys_rhs)
        if sol is None:
            continue
        ok = all(sum(a * x for a, x in zip(row, sol)) >= b
                 for row, b in ineqs)
        if ok:
            eps = sol[-1]
            if best is None or eps > best:
                best = eps
    return best is not None and best > 0


class TestExamples:
    def test_unit_square_diagonals(self):
        pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
        w = proper_weights(ProperWeightProblem(pts, [(0, 3), (1, 2)]))
        assert w is not None
        assert w.common_point == (F(1, 2), F(1, 2))
        assert all(v == F(1, 2) for v in w.weights.values())

    def test_collinear_five(self):
        pts = [(1,), (2,), (3,), (4,), (5,)]
        w = proper_weights(ProperWeightProblem(pts, [(0, 4), (1, 3), (2,)]))
        assert w is not None
        assert w.common_point == (F(3),)
        assert w.weights == {0: F(1, 2), 4: F(1, 2), 1: F(1, 2),
                             3: F(1, 2), 2: F(1)}

    def test_distinct_singletons_infeasible(self):
        pts = [(0, 0), (1, 1)]
        assert proper_weights(ProperWeightProblem(pts, [(0,), (1,)])) is None

    def test_invalid_parts(self):
        pts = [(0,), (1,)]
        with pytest.raises(PreconditionError):
            ProperWeightProblem(pts, [(0,), (0,)])
        with pytest.raises(PreconditionError):
            ProperWeightProblem(pts, [(0,), ()])


class TestWitness:
    def test_reverification(self):
        pts = [(1,), (2,), (3,), (4,), (5,)]
        parts = [(0, 4), (1, 3), (2,)]
        w = proper_weights(ProperWeightProblem(pts, parts))
        assert w.verify(pts, parts)
        bad = WeightWitness(dict(w.weights), (F(4),), w.slack)
        assert not bad.verify(pts, parts)

    def test_json_round_trip(self):
        pts = [(1,), (2,), (3,), (4,), (5,)]
        parts = [(0, 4), (1, 3), (2,)]
        w = proper_weights(ProperWeightProblem(pts, parts))
        assert WeightWitness.from_json(w.to_json()) == w


class TestOracleAgreement:
    def test_small_problems_match_vertex_enumeration(self):
        rng = random.Random(17)
        checked = 0
        for trial in range(120):
            n = rng.randint(3, 7)
            d = rng.randint(1, 2)
            pts = [tuple(F(rng.randint(-6, 6), rng.randint(1, 4))
                         for _ in range(d)) for _ in range(n)]
            r = rng.randint(2, 3)
            if n < r:
                continue
            idx = list(range(n))
            rng.shuffle(idx)
            sizes = []
            left = n
            for j in range(r):
                hi = max(1, min(3, left - (r - j - 1)))
                s = rng.randint(1, hi)
                sizes.append(s)
                left -= s
            parts, pos = [], 0
            for s in sizes:
                parts.append(tuple(sorted(idx[pos:pos + s])))
                pos += s
            got = proper_weights(ProperWeightProblem(pts, parts)) is not None
            want = vertex_enumeration_oracle(pts, parts)
            assert got == want, (pts, parts)
            checked += 1
        assert checked >= 100

    def test_underdetermined_path_agrees(self):
        # interval systems with slack exercise the simplex branch
        pts = [(i,) for i in range(1, 8)]
        parts = [(0, 6), (1, 2, 3, 4, 5)]
        w = proper_weights(ProperWeightProblem(pts, parts))
        assert w is not None and w.verify(pts, parts)
        assert vertex_enumeration_oracle(pts, parts)


class TestTranslationInvariance:
    def test_shift_moves_common_point_only(self):
        rng = random.Random(4)
        pts = [tuple(F(rng.randint(-9, 9)) for _ in range(2))
               for _ in range(6)]
        parts = [(0, 1, 2), (3, 4, 5)]
        base = proper_weights(ProperWeightProblem(pts, parts))
        shift = (F(7, 3), F(-2))
        moved = [tuple(c + s for c, s in zip(p, shift)) for p in pts]
        after = proper_weights(ProperWeightProblem(moved, parts))
        assert (base is None) == (after is None)
        if base is not None:
            assert after.weights == base.weights
            assert after.common_point == tuple(
                c + s for c, s in zip(base.common_point, shift))


class TestRealify:
    def test_gaussian_coordinates(self):
        c = Cyclotomic(4, [2, 3])  # 2 + 3i
        cfg = PointConfig(1, [[c]], 4)
        assert realify(cfg).points == ((F(2), F(3)),)

    def test_zeta3(self):
        z = Cyclotomic.root_of_unity(3)
        cfg = PointConfig(1, [[z]], 3)
        assert realify(cfg).points == ((F(0), F(1)),)

    def test_equality_preserved_and_reflected(self):
        # equal complex combinations iff equal realified combinations
        rng = random.Random(9)
        i = Cyclotomic.root_of_unity(4)
        pts = [[Cyclotomic(4, [rng.randint(-5, 5), rng.randint(-5, 5)])]
               for _ in range(4)]
        cfg = PointConfig(1, pts, 4)
        real = realify(cfg)
        # a dependency holds over Q(i) iff it holds over the realification
        lam = [F(1), F(-1), F(1), F(-1)]
        lhs = sum((l * p[0] for l, p in zip(lam, pts)),
                  Cyclotomic.from_rational(4, 0))
        rl = [sum(l * q[c] for l, q in zip(lam, real.points))
              for c in range(2)]
        assert (lhs.is_zero()) == all(x == 0 for x in rl)

    def test_rational_config_rejected(self):
        with pytest.raises(PreconditionError):
            realify(PointConfig(1, [[1]]))


class TestSolverReuse:
    def test_solver_matches_one_shot(self):
        rng = random.Random(23)
        pts = [tuple(F(rng.randint(-9, 9), rng.randint(1, 5))
                     for _ in range(2)) for _ in range(7)]
        solver = ExactWeightSolver(pts)
        for _ in range(40):
            idx = list(range(7))
            rng.shuffle(idx)
            parts = [tuple(sorted(idx[:2])), tuple(sorted(idx[2:4])),
                     tuple(sorted(idx[4:5]))]
            a = solver.solve(parts)
            b = proper_weights(ProperWeightProblem(pts, parts))
            assert (a is None) == (b is None)
            if a is not None:
                assert a == b


# a midpoint Radon pair: 1 = (0 + 2) / 2
RADON_POINTS = [[F(0)], [F(2)], [F(1)]]
RADON_PARTS = [(0, 1), (2,)]

REVERIFY_SCRIPT = """
import sys
from fractions import Fraction as F
from fandist.errors import VerificationBug
from fandist.feaslp import ProperWeightProblem, WeightWitness, proper_weights
WeightWitness.verify = lambda self, points, parts: False
try:
    proper_weights(ProperWeightProblem([[F(0)], [F(2)], [F(1)]],
                                       [(0, 1), (2,)]))
except VerificationBug:
    print("VerificationBug", sys.flags.optimize)
else:
    print("returned", sys.flags.optimize)
"""

# the inverse Gale transform's check of its own pair, on a perturbed kernel
# (integers over lead, integer coefficient vectors over Q(i)), over Q and
# over Q(i)
GALE_SELF_CHECK_SCRIPT = """
import sys
from fandist.errors import VerificationBug
from fandist import galedual
from fandist.galedual import PointConfig, inverse_gale, lift_augment
from fandist.genpos import random_config
duals = [("Q", PointConfig(1, [[1], [-2], [1]])),
         ("Qi", lift_augment(random_config(5, 2, field=4, seed=7300)))]
dual_kernel = galedual._dual_kernel
def perturbed(dual):
    K, lead, bridge = dual_kernel(dual)
    K = [list(v) for v in K]
    x = K[-1][0]
    K[-1][0] = x + lead if dual.conductor is None else [x[0] + lead] + x[1:]
    return K, lead, bridge
galedual._dual_kernel = perturbed
for name, dual in duals:
    try:
        inverse_gale(dual)
    except VerificationBug:
        print(name, "VerificationBug")
    else:
        print(name, "returned")
print(sys.flags.optimize)
"""


def run_optimized(script):
    """What the script prints under ``python -O``, split into words."""
    src = os.path.dirname(os.path.dirname(fandist.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


class TestReverification:
    def test_feasible_example(self):
        assert proper_weights(ProperWeightProblem(RADON_POINTS,
                                                  RADON_PARTS)) is not None

    def test_failed_verify_raises(self, monkeypatch):
        monkeypatch.setattr(WeightWitness, "verify",
                            lambda self, points, parts: False)
        with pytest.raises(VerificationBug):
            proper_weights(ProperWeightProblem(RADON_POINTS, RADON_PARTS))

    def test_failed_verify_raises_under_optimize(self):
        assert run_optimized(REVERIFY_SCRIPT) == ["VerificationBug", "1"]

    def test_failed_gale_self_check_raises_under_optimize(self):
        assert run_optimized(GALE_SELF_CHECK_SCRIPT) == \
            ["Q", "VerificationBug", "Qi", "VerificationBug", "1"]


def solve_counting_simplex(solver, parts, closed_form=True):
    """(witness, number of _simplex_max_eps calls) of one solve.

    With closed_form=False the nullity-one closed form answers
    'interval' for every system, so each underdetermined system reaches
    _simplex_max_eps on the same echelon rows as the closed form sees.
    """
    calls = []
    simplex, line = feaslp._simplex_max_eps, feaslp._max_eps_line

    def counted(rows, rhs, nvars):
        calls.append(nvars)
        return simplex(rows, rhs, nvars)

    feaslp._simplex_max_eps = counted
    if not closed_form:
        feaslp._max_eps_line = lambda M, pivots, nvars: ("interval", None)
    try:
        witness = solver.solve(parts)
    finally:
        feaslp._simplex_max_eps, feaslp._max_eps_line = simplex, line
    return witness, len(calls)


@st.composite
def weight_systems(draw):
    """Small integer points and parts of a chosen generic nullity.

    r parts over n points in R^d give r + (r-1)d equations in n weights,
    so n = r + (r-1)d + k has nullity k for generic points; repeated
    points raise it further.  Centered parts sum to the origin, so their
    uniform weights are proper and the system is feasible.
    """
    r = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(1, 2))
    k = draw(st.sampled_from([1, 1, 2, 3]))
    n = r + (r - 1) * d + k
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=r - 1,
                                max_size=r - 1, unique=True)))
    bounds = [0] + cuts + [n]
    parts = [tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    pts = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d,
                                 max_size=d), min_size=n, max_size=n))
    pts = [[F(c) for c in p] for p in pts]
    kind = draw(st.sampled_from(["generic", "repeated", "pinned",
                                 "centered"]))
    if kind == "pinned":
        # part a collapses to one point of part b's hull, with weights
        # proportional to 1, 2, ...; that pins the common point, so part
        # b's weights can be constant below the crossing of part a's
        # free weights, which leaves an interval of optima
        a, b = draw(st.permutations(range(r)))[:2]
        size = len(parts[b])
        inner = [sum((j + 1) * pts[i][c] for j, i in enumerate(parts[b]))
                 / (size * (size + 1) // 2) for c in range(d)]
        for i in parts[a]:
            pts[i] = list(inner)
    elif kind == "repeated":
        for i in range(1, n):
            if draw(st.booleans()):
                pts[i] = list(pts[draw(st.integers(0, i - 1))])
    elif kind == "centered":
        for part in parts:
            *rest, last = part
            pts[last] = [-sum(pts[i][c] for i in rest) for c in range(d)]
    return [tuple(p) for p in pts], parts


class TestClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(weight_systems())
    def test_matches_simplex(self, system):
        pts, parts = system
        solver = ExactWeightSolver(pts)
        got, _ = solve_counting_simplex(solver, parts)
        want, _ = solve_counting_simplex(solver, parts, closed_form=False)
        assert (got is None) == (want is None)
        assert got == want  # weights, common point and slack

    def test_interval_of_optima_goes_to_simplex(self):
        # t0 = 2/3 and t1 = 1/3 are fixed; t2 + t3 = 1 leaves every
        # t2 in [1/3, 2/3] optimal, and the simplex picks t2 = 2/3
        pts = [(F(0),), (F(3),), (F(1),), (F(1),)]
        w, calls = solve_counting_simplex(ExactWeightSolver(pts),
                                          [(0, 1), (2, 3)])
        assert w.weights == {0: F(2, 3), 1: F(1, 3), 2: F(2, 3),
                             3: F(1, 3)}
        assert w.slack == F(1, 3)
        assert calls == 1

    def test_nullity_one_makes_no_simplex_call(self):
        # c = 6 t1 = t2 + 4 t3 = 2 t4 + 3 t5; t1 rises and t4 falls in c
        # and they cross at c = 18/7, height 3/7
        pts = [(F(x),) for x in (0, 6, 1, 4, 2, 3)]
        parts = [(0, 1), (2, 3), (4, 5)]
        w, calls = solve_counting_simplex(ExactWeightSolver(pts), parts)
        assert calls == 0
        assert w.common_point == (F(18, 7),)
        assert w.slack == F(3, 7)
        assert w.weights == {0: F(4, 7), 1: F(3, 7), 2: F(10, 21),
                             3: F(11, 21), 4: F(3, 7), 5: F(4, 7)}


def pinned_systems(count):
    """Seeded candidate systems: r parts over small integer points.

    Repeated points and centered parts (each part sums to the origin, so
    its uniform weights are proper) give degenerate and feasible systems
    next to generic, mostly infeasible ones.
    """
    for seed in range(count):
        rng = random.Random(seed)
        r = rng.choice([2, 3])
        d = rng.randint(1, 2)
        n = r + (r - 1) * d + rng.choice([1, 2, 3])
        cuts = sorted(rng.sample(range(1, n), r - 1))
        bounds = [0] + cuts + [n]
        parts = [tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])]
        pts = [[F(rng.randint(-3, 3)) for _ in range(d)] for _ in range(n)]
        kind = rng.choice(["generic", "repeated", "centered"])
        if kind == "repeated":
            for i in range(1, n):
                if rng.random() < 0.5:
                    pts[i] = list(pts[rng.randrange(i)])
        elif kind == "centered":
            for part in parts:
                *rest, last = part
                pts[last] = [-sum(pts[i][c] for i in rest) for c in range(d)]
        yield [tuple(p) for p in pts], parts


def count_pivots(monkeypatch):
    """A list that grows by one entry per simplex pivot from now on."""
    pivots = []
    pivot = feaslp._pivot

    def counted(T, basis, row, col):
        pivots.append(col)
        pivot(T, basis, row, col)

    monkeypatch.setattr(feaslp, "_pivot", counted)
    return pivots


class TestSimplexPins:
    """The simplex's vertex choices under Bland's rule, pinned.

    Where the optimal weights are not unique the witness is the vertex
    the simplex reaches, so these pins hold exactly as long as every
    entering and leaving choice stays the same.
    """

    def test_seeded_systems(self, monkeypatch):
        pivots = count_pivots(monkeypatch)
        witnesses, calls = [], 0
        for pts, parts in pinned_systems(200):
            w, c = solve_counting_simplex(ExactWeightSolver(pts), parts,
                                          closed_form=False)
            witnesses.append(None if w is None else w.to_json())
            calls += c
        digest = hashlib.sha256(
            json.dumps(witnesses, sort_keys=True).encode()).hexdigest()
        assert sum(w is not None for w in witnesses) == 106
        assert digest == ("d76d0f8835ebb545daa954b78f2e75c0"
                          "28ca9f3bce87937c1cf0258e976be45e")
        assert calls == 181
        assert len(pivots) == 1129

    @pytest.mark.slow
    def test_two_fan_search(self, monkeypatch):
        from fandist.genpos import random_config
        from fandist.pipeline import two_fans
        pivots = count_pivots(monkeypatch)
        X = random_config(9, 6, seed=1, coloring=[0] * 4 + [1] * 5)
        assert two_fans(X, 3) is None
        assert len(pivots) == 2925


class TestIterationBound:
    # nullity two: the larger simplex phase makes exactly five pivots
    PTS = [(F(x),) for x in (0, 6, 1, 4, 2, 3, 5)]
    PARTS = [(0, 1), (2, 3, 4), (5, 6)]

    def test_optimum_within_the_bound_returns(self, monkeypatch):
        monkeypatch.setattr(feaslp, "SIMPLEX_ITERATION_CAP", 5)
        w = ExactWeightSolver(self.PTS).solve(self.PARTS)
        assert w.weights == {0: F(19, 42), 1: F(23, 42), 2: F(1, 7),
                             3: F(5, 7), 4: F(1, 7), 5: F(6, 7), 6: F(1, 7)}
        assert w.slack == F(1, 7)

    def test_one_pivot_over_the_bound_raises(self, monkeypatch):
        monkeypatch.setattr(feaslp, "SIMPLEX_ITERATION_CAP", 4)
        with pytest.raises(VerificationBug, match="iteration bound"):
            ExactWeightSolver(self.PTS).solve(self.PARTS)


class TestSimplexPhaseOneExits:
    """Phase 1's two rarer exits: a leftover artificial driven out of the
    basis, and an infeasible equality system."""

    def test_leftover_artificial_is_driven_out(self, monkeypatch):
        # rank 3 over 4 rows: phase 1 ends with an artificial still basic
        rows = [[F(x) for x in row]
                for row in ([0, 2, -2], [0, -2, 0], [2, 2, 2], [0, -1, 2])]
        rhs = [F(0), F(0), F(1), F(0)]
        returned, pivots = [], []
        run, pivot = feaslp._run_simplex, feaslp._pivot

        def spied_run(T, basis):
            z = run(T, basis)
            returned.append(z)
            return z

        def spied_pivot(T, basis, row, col):
            # (phases returned so far, an artificial leaves the basis)
            pivots.append((len(returned), basis[row] >= 3 + 2))
            pivot(T, basis, row, col)

        monkeypatch.setattr(feaslp, "_run_simplex", spied_run)
        monkeypatch.setattr(feaslp, "_pivot", spied_pivot)
        eps, t = feaslp._simplex_max_eps(rows, rhs, 3)
        assert (eps, t) == (0, [F(1, 2), 0, 0])
        M = [[int(x) for x in row] + [int(b)] for row, b in zip(rows, rhs)]
        assert feaslp._solve_equalities_int(M, 3) == ("unique", t)
        assert returned == [0, 0]
        # the third pivot drives the artificial out between the phases
        assert pivots == [(0, True), (0, True), (1, True)]

    def test_infeasible_equalities(self):
        assert feaslp._simplex_max_eps([[F(1), F(1)], [F(1), F(1)]],
                                       [F(1), F(0)], 2) == (None, None)
