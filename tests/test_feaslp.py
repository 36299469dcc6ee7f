import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations

import pytest

import fandist
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
        src = os.path.dirname(os.path.dirname(fandist.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-O", "-c", REVERIFY_SCRIPT],
                             env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["VerificationBug", "1"]
