import json
import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fandist import exactnum, galedual
from fandist.errors import (
    NonzeroSum,
    NotADependence,
    NotAffinelySpanning,
    NotSpanning,
    PreconditionError,
    VerificationBug,
    ZeroFunctional,
)
from fandist.exactnum import (
    Cyclotomic,
    ExactMatrix,
    FieldMismatch,
    conj,
    hermitian_dot,
    scalar_is_zero,
    scalar_one,
    scalar_zero,
)
from fandist.galedual import (
    GaleDualPair,
    PointConfig,
    _is_dependence,
    dependence_to_functional,
    functional_to_dependence,
    gale_pair_from_dual,
    gale_transform,
    inverse_gale,
    lift_augment,
    linear_change_of_basis,
)
from fandist.genpos import random_config
from fandist.pipeline import equidistribute


def random_spanning(n, d, seed, bits=6):
    rng = random.Random(seed)
    top = (1 << bits) - 1
    while True:
        pts = [[F(rng.randint(-top, top), rng.randint(1, top))
                for _ in range(d)] for _ in range(n)]
        cfg = PointConfig(d, pts)
        if cfg.affinely_spanning():
            return cfg


def radon_partition_oracle(points):
    """Brute force over all 2-part splits of 4 planar points."""
    from fandist.feaslp import ProperWeightProblem, proper_weights
    hits = []
    idx = set(range(4))
    for size in (1, 2):
        for left in combinations(range(4), size):
            right = tuple(sorted(idx - set(left)))
            if left[0] > right[0]:
                continue
            if proper_weights(ProperWeightProblem(points,
                                                  [left, right])):
                hits.append((left, right))
    return hits


fracs = st.builds(F, st.integers(-9, 9), st.integers(1, 7))


def dual_rows(pair):
    """The rows of B, the dual's coordinate rows (conjugation fixes Q)."""
    return ExactMatrix(list(zip(*pair.dual.points)))


def dependence_of(pair, c):
    """lambda = B^T c, the dependence whose functional is c."""
    return dual_rows(pair).transpose().mul_vec(c)


@st.composite
def rational_bridges(draw):
    """(pair, c): the pipeline's Gale pair of a lifted, augmented rational
    configuration whose dual has denominators > 1, and a nonzero c."""
    D = draw(st.integers(1, 3))
    n = draw(st.integers(D + 2, D + 5))
    pts = draw(st.lists(st.lists(fracs, min_size=D, max_size=D),
                        min_size=n, max_size=n))
    assume(any(c.denominator > 1 for p in pts for c in p))
    cfg = PointConfig(D, pts)
    assume(cfg.affinely_spanning())
    pair = gale_pair_from_dual(lift_augment(cfg))
    c = draw(st.lists(fracs, min_size=pair.dual.dim,
                      max_size=pair.dual.dim))
    assume(any(c))
    return pair, tuple(c)


@lru_cache(maxsize=None)
def cyclotomic_pair(N, n, seed):
    """The pipeline's Gale pair of a lifted, augmented configuration of n
    points in Q(zeta_N)^2."""
    return gale_pair_from_dual(
        lift_augment(random_config(n, 2, field=N, seed=seed)))


@st.composite
def cyclotomic_bridges(draw):
    """(pair, c): a Gale pair over Q(zeta_N), N in {3, 4, 8, 12}, and a
    nonzero c over Q(zeta_N)."""
    N = draw(st.sampled_from((3, 4, 8, 12)))
    pair = cyclotomic_pair(N, draw(st.integers(4, 5)),
                           draw(st.integers(7300, 7303)))
    c = draw(st.lists(st.builds(lambda cs: Cyclotomic(N, cs),
                                st.lists(fracs, min_size=3, max_size=3)),
                      min_size=pair.dual.dim, max_size=pair.dual.dim))
    assume(any(c))
    return pair, tuple(c)


def rank_oracle(columns):
    """Rank by plain Fraction elimination, independent of the library."""
    rows = [list(col) for col in columns]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def greedy_columns(columns):
    """Add each column that raises the rank, left to right."""
    chosen = []
    for j in range(len(columns)):
        if rank_oracle([columns[k] for k in chosen + [j]]) > len(chosen):
            chosen.append(j)
    return chosen


class TestGaleTransform:
    def test_collinear_three_points(self):
        pair = gale_transform(PointConfig(1, [[0], [1], [2]]))
        g = [p[0] for p in pair.dual.points]
        # spans K^1, sums to zero, and carries the dependence 1,-2,1
        assert any(x != 0 for x in g)
        assert sum(g) == 0
        assert g[0] * 0 + g[1] * 1 + g[2] * 2 == 0 or True
        # proportional to (1, -2, 1)
        assert g[1] == -2 * g[0] and g[2] == g[0]

    def test_dual_sign_pattern_is_radon_partition(self):
        cfg = random_spanning(4, 2, seed=5)
        pair = gale_transform(cfg)
        g = [p[0] for p in pair.dual.points]  # dual in K^1
        pos = tuple(sorted(i for i in range(4) if g[i] > 0))
        neg = tuple(sorted(i for i in range(4) if g[i] < 0))
        hits = radon_partition_oracle(cfg.points)
        assert len(hits) == 1, "generic 4 points have a unique Radon split"
        split = tuple(sorted([pos, neg]))
        assert split == tuple(sorted(hits[0]))

    def test_dual_sums_to_zero_random(self):
        for seed in range(10):
            cfg = random_spanning(random.Random(seed).randint(4, 8), 2, seed)
            pair = gale_transform(cfg)
            for i in range(pair.dual.dim):
                assert sum(p[i] for p in pair.dual.points) == 0
            assert pair.dual.linearly_spanning()

    def test_not_spanning_rejected(self):
        with pytest.raises(NotAffinelySpanning):
            gale_transform(PointConfig(2, [[0, 0], [1, 1], [2, 2]]))


class TestInverseGale:
    def test_three_collinear_dual(self):
        dual = PointConfig(1, [[1], [-2], [1]])
        primal = inverse_gale(dual)
        assert primal.dim == 1 and primal.n == 3
        # affine dependence with coefficients proportional to (1,-2,1)
        a = [p[0] for p in primal.points]
        assert 1 * a[0] - 2 * a[1] + 1 * a[2] == 0

    def test_nonzero_sum_rejected(self):
        with pytest.raises(NonzeroSum):
            inverse_gale(PointConfig(1, [[1], [1], [1]]))

    def test_non_spanning_dual_rejected(self):
        # sums to zero, but every point lies on the first axis
        with pytest.raises(NotSpanning):
            inverse_gale(PointConfig(2, [[1, 0], [-1, 0], [2, 0], [-2, 0]]))

    def test_round_trip_up_to_affine_isomorphism(self):
        for seed in (0, 1, 2):
            cfg = random_spanning(6, 2, seed)
            pair = gale_transform(cfg)
            rec = inverse_gale(pair.dual)
            one = F(1)
            lift_rec = [tuple(p) + (one,) for p in rec.points]
            lift_orig = [tuple(p) + (one,) for p in cfg.points]
            T = linear_change_of_basis(lift_rec, lift_orig)
            assert T is not None and T.rank() == cfg.dim + 1

    def test_general_position_duality(self):
        # dual in general position iff primal is (checked by rank oracles)
        for seed in range(6):
            n = 4 + seed % 3
            dual = random_spanning(n, 1, seed + 40)
            s = [sum(p[i] for p in dual.points) for i in range(1)]
            pts = [list(p) for p in dual.points]
            pts[-1] = [pts[-1][0] - s[0]]  # force zero sum
            dual = PointConfig(1, pts)
            if not dual.linearly_spanning():
                continue
            primal = inverse_gale(dual)

            def in_general_position(cfg):
                k = min(cfg.n, cfg.dim + 1)
                for sub in combinations(range(cfg.n), k):
                    rows = [list(cfg.points[i]) + [F(1)] for i in sub]
                    if ExactMatrix(rows).rank() != k:
                        return False
                return True

            def dual_general_position(cfg):
                # any dim-many of the points linearly span
                for sub in combinations(range(cfg.n), cfg.dim):
                    cols = [list(cfg.points[i]) for i in sub]
                    if ExactMatrix.from_columns(cols).rank() != cfg.dim:
                        return False
                return True

            assert in_general_position(primal) == dual_general_position(dual)


def kernel_oracle(columns, one):
    """The kernel basis of the matrix with these columns, read off a
    Gauss-Jordan pass that divides each pivot row: one vector per free
    column f, with 1 at f, 0 at the other free columns and minus the
    reduced row entries of f at the pivot columns."""
    n = len(columns)
    grid = [list(row) for row in zip(*columns)]
    pivots = []
    for col in range(n):
        prow = len(pivots)
        pivot = next((r for r in range(prow, len(grid)) if grid[r][col]),
                     None)
        if pivot is None:
            continue
        grid[prow], grid[pivot] = grid[pivot], grid[prow]
        pv = grid[prow][col]
        grid[prow] = [e / pv for e in grid[prow]]
        for r in range(len(grid)):
            if r != prow and grid[r][col]:
                f = grid[r][col]
                grid[r] = [x - f * y for x, y in zip(grid[r], grid[prow])]
        pivots.append(col)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [one - one] * n
        v[f] = one
        for k, pc in enumerate(pivots):
            v[pc] = -grid[k][f]
        basis.append(tuple(v))
    return basis


def inverse_gale_oracle(dual):
    """The primal points of the Fraction inverse Gale transform: the
    kernel basis of the columns g_i, the all-ones vector exchanged in for
    the first basis vector with a nonzero coefficient in it."""
    n, d = dual.n, dual.n - dual.dim - 1
    ones = tuple([scalar_one(dual.conductor)] * n)
    kb = kernel_oracle(dual.points, ones[0])
    assert len(kb) == d + 1
    coeff = ExactMatrix.from_columns(kb, dual.conductor).solve(ones)
    swap = next(i for i, c in enumerate(coeff) if not scalar_is_zero(c))
    basis = [kb[i] for i in range(d + 1) if i != swap] + [ones]
    return tuple(tuple(conj(basis[k][j]) for k in range(d))
                 for j in range(n))


def zero_sum_dual(dim, pts, conductor=None):
    """The points with one more appended, minus their sum."""
    pts = [list(p) for p in pts]
    pts.append([-sum(col[1:], col[0]) for col in zip(*pts)])
    return PointConfig(dim, pts, conductor)


@st.composite
def rational_duals(draw):
    """A linearly spanning rational dual that sums to zero, with n >= m+2
    points; coordinates repeat and vanish often."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m + 2, m + 5))
    pts = draw(st.lists(st.lists(fracs, min_size=m, max_size=m),
                        min_size=n - 1, max_size=n - 1))
    dual = zero_sum_dual(m, pts)
    assume(dual.linearly_spanning())
    return dual


def is_dependence_oracle(pair, lam):
    """A nonzero affine dependence of the primal, in Fractions."""
    pts = pair.primal.points
    return any(lam) and sum(lam) == 0 and all(
        sum(x * p[i] for x, p in zip(lam, pts)) == 0
        for i in range(pair.primal.dim))


class TestIntegerPrepare:
    @settings(max_examples=200, deadline=None)
    @given(rational_duals())
    def test_inverse_gale_matches_fraction_oracle(self, dual):
        primal = inverse_gale(dual)
        assert primal.dim == dual.n - dual.dim - 1
        assert primal.points == inverse_gale_oracle(dual)
        assert inverse_gale(dual).points == primal.points
        assert primal.affinely_spanning()
        assert linear_change_of_basis(gale_transform(primal).dual.points,
                                      dual.points) is not None

    @pytest.mark.parametrize("N", [3, 4, 8])
    def test_cyclotomic_inverse_gale_matches_oracle(self, N):
        rng = random.Random(N)
        for _ in range(3):
            pts = [[Cyclotomic(N, [F(rng.randint(-4, 4), rng.randint(1, 3))
                                   for _ in range(2)])] for _ in range(4)]
            dual = zero_sum_dual(1, pts, N)
            primal = inverse_gale(dual)
            assert primal.points == inverse_gale_oracle(dual)
            assert primal.affinely_spanning()
            assert linear_change_of_basis(gale_transform(primal).dual.points,
                                          dual.points) is not None

    @settings(max_examples=100, deadline=None)
    @given(rational_bridges(), st.data())
    def test_perturbed_basis_row_is_not_a_dependence(self, case, data):
        # dual coordinate k of point j is entry (k, j) of the basis row k
        pair, _ = case
        pair.validate()
        pts = [list(g) for g in pair.dual.points]
        n = pair.primal.n
        k = data.draw(st.integers(0, pair.dual.dim - 1))
        j = data.draw(st.integers(0, n - 1))
        delta = data.draw(fracs.filter(bool))
        pts[j][k] += delta

        def validate():
            GaleDualPair(pair.primal,
                         PointConfig(pair.dual.dim, pts)).validate()

        with pytest.raises(NotADependence):
            validate()
        # moving the weight to another point keeps the row sum: only a
        # coordinate equation can fail, and fails iff the points differ
        j2 = data.draw(st.integers(0, n - 1).filter(lambda i: i != j))
        pts[j2][k] -= delta
        if pair.primal.points[j] == pair.primal.points[j2]:
            validate()
        else:
            with pytest.raises(NotADependence):
                validate()

    @pytest.mark.parametrize("N", [4, 3])
    def test_perturbed_cyclotomic_dual_is_not_a_dependence(self, N):
        # row k of B is conj(g_j[k]) over j; moving one entry by delta
        # moves A b by conj(delta) (a_j, 1), whose last entry is nonzero
        rng = random.Random(N)
        zeta = Cyclotomic.root_of_unity(N)
        for seed in range(3):
            X = random_config(4, 2, field=N, seed=900 + seed)
            pair = gale_pair_from_dual(lift_augment(X))
            for delta in (F(rng.randint(1, 5), rng.randint(1, 3)),
                          zeta * rng.randint(1, 4)):
                pts = [list(g) for g in pair.dual.points]
                k = rng.randrange(pair.dual.dim)
                j = rng.randrange(pair.dual.n)
                pts[j][k] += delta
                perturbed = PointConfig(pair.dual.dim, pts, N)
                with pytest.raises(NotADependence):
                    GaleDualPair(pair.primal, perturbed).validate()

    @settings(max_examples=200, deadline=None)
    @given(rational_bridges() | cyclotomic_bridges(), st.data())
    def test_is_dependence_matches_fraction_oracle(self, case, data):
        # lambda_j = <c, g_j> is a dependence; moving one coordinate by a
        # rational or a multiple of zeta, or moving weight between two
        # points, keeps it one only by chance; shifting every coordinate
        # makes its sum nonzero
        pair, c = case
        lam = [hermitian_dot(c, g) for g in pair.dual.points]
        zeta = Cyclotomic.root_of_unity(pair.primal.conductor or 4)
        j, j2 = (data.draw(st.integers(0, len(lam) - 1)) for _ in range(2))
        delta = data.draw(fracs.filter(bool))
        change = data.draw(st.sampled_from(
            ("none", "rational", "zeta", "move", "shift")))
        if change == "rational":
            lam[j] += delta
        elif change == "zeta":
            lam[j] += delta * zeta
        elif change == "move":
            lam[j] += delta
            lam[j2] -= delta
        elif change == "shift":
            lam = [x + delta for x in lam]
        assume(any(lam))
        assert _is_dependence(pair, lam) == is_dependence_oracle(pair, lam)
        if change in ("none", "shift"):
            assert _is_dependence(pair, lam) == (change == "none")

    @settings(max_examples=100, deadline=None)
    @given(rational_bridges())
    def test_left_inverse_points_are_greedy(self, case):
        pair, _ = case
        assert pair._bridge[0] == greedy_columns(pair.dual.points)


def perturb_dual_kernel(monkeypatch):
    """Move the first entry of the last kernel vector by one: the first
    primal point's last coordinate moves, and every dual row that weights
    that point stops being a dependence.  The kernel is integers over its
    lead, integer coefficient vectors over Q(zeta_N), so one is lead."""
    dual_kernel = galedual._dual_kernel

    def perturbed(dual):
        K, lead, bridge = dual_kernel(dual)
        K = [list(v) for v in K]
        x = K[-1][0]
        K[-1][0] = x + lead if dual.conductor is None else \
            [x[0] + lead] + x[1:]
        return K, lead, bridge

    monkeypatch.setattr(galedual, "_dual_kernel", perturbed)


class TestSelfCheck:
    @pytest.mark.parametrize("dual", [
        PointConfig(1, [[1], [-2], [1]]),
        lift_augment(random_config(5, 2, field=4, seed=7300)),
    ], ids=["Q", "Qi"])
    def test_failed_self_check_is_a_bug(self, monkeypatch, dual):
        primal = inverse_gale(dual)
        perturb_dual_kernel(monkeypatch)
        with pytest.raises(VerificationBug):
            gale_pair_from_dual(dual)
        with pytest.raises(VerificationBug):
            inverse_gale(dual)
        # a pair the caller built is checked as data, not as a bug
        pts = [list(g) for g in dual.points]
        pts[0][0] += 1
        bad_dual = PointConfig(dual.dim, pts, dual.conductor)
        with pytest.raises(NotADependence):
            GaleDualPair(primal, bad_dual).validate()


class TestLiftAugment:
    def test_two_points_forced_arithmetic(self):
        lifted = lift_augment(PointConfig(1, [[0], [1]]))
        assert lifted.points == ((F(0), F(1)), (F(1), F(1)),
                                 (F(-1), F(-2)))

    def test_sum_zero_always(self):
        cfg = random_spanning(5, 2, seed=9)
        lifted = lift_augment(cfg)
        for i in range(lifted.dim):
            assert sum(p[i] for p in lifted.points) == 0

    def test_rank_oracle_seven_points(self):
        cfg = random_spanning(7, 5, seed=2)
        lifted = lift_augment(cfg)
        assert lifted.n == 8 and lifted.dim == 6
        assert lifted.linearly_spanning()
        # inverse-Gale eligible with d = n - D - 1 = 1
        primal = inverse_gale(lifted)
        assert primal.dim == 1


class TestBridge:
    def test_collinear_functional(self):
        pair = gale_transform(PointConfig(1, [[0], [1], [2]]))
        lam = [F(1), F(-2), F(1)]
        alpha = dependence_to_functional(pair, lam)
        g0 = pair.dual.points[0][0]
        # alpha reproduces lambda against the duals
        from fandist.exactnum import hermitian_dot
        for i, g in enumerate(pair.dual.points):
            assert hermitian_dot(alpha, g) == lam[i]
        assert g0 != 0

    def test_zero_dependence_rejected(self):
        pair = gale_transform(PointConfig(1, [[0], [1], [2]]))
        with pytest.raises(NotADependence):
            dependence_to_functional(pair, [F(0), F(0), F(0)])
        with pytest.raises(NotADependence):
            dependence_to_functional(pair, [F(1), F(0), F(0)])

    def test_zero_functional_rejected(self):
        pair = gale_transform(PointConfig(1, [[0], [1], [2]]))
        with pytest.raises(ZeroFunctional):
            functional_to_dependence(pair, [F(0)])

    def test_round_trips_exact(self):
        rng = random.Random(21)
        pairs = []
        for seed in range(20):
            n = rng.randint(4, 8)
            d = rng.randint(1, min(2, n - 2))
            pairs.append(gale_transform(random_spanning(n, d, 100 + seed)))
        for pair in pairs:
            m = pair.dual.dim
            for _ in range(5):
                alpha = [F(rng.randint(-9, 9), rng.randint(1, 9))
                         for _ in range(m)]
                if all(a == 0 for a in alpha):
                    continue
                lam = functional_to_dependence(pair, alpha)
                assert sum(lam) == 0
                for c in range(pair.primal.dim):
                    assert sum(l * pair.primal.points[i][c]
                               for i, l in enumerate(lam)) == 0
                back = dependence_to_functional(pair, lam)
                assert tuple(back) == tuple(alpha)

    def test_dependence_direction_round_trip(self):
        # random dependencies (kernel combinations) map to functionals and
        # back to themselves exactly
        rng = random.Random(55)
        for seed in range(10):
            cfg = random_spanning(rng.randint(5, 8), 2, 300 + seed)
            pair = gale_transform(cfg)
            kb = [list(row) for row in zip(*pair.dual.points)]
            lam = [F(0)] * cfg.n
            for row in kb:
                c = F(rng.randint(-5, 5), rng.randint(1, 4))
                lam = [a + c * b for a, b in zip(lam, row)]
            if all(x == 0 for x in lam):
                continue
            alpha = dependence_to_functional(pair, lam)
            back = functional_to_dependence(pair, alpha)
            assert tuple(back) == tuple(lam)

    @settings(max_examples=150, deadline=None)
    @given(rational_bridges())
    def test_left_inverse_matches_solve(self, case):
        pair, c = case
        lam = dependence_of(pair, c)
        alpha = dependence_to_functional(pair, lam)
        assert alpha == dual_rows(pair).transpose().solve(lam) == c
        assert all(type(a) is F for a in alpha)

    def test_rational_bridge_makes_no_solve(self, monkeypatch):
        """One reduction of the dual serves the primal and r functionals:
        one elimination in all, and no solve."""
        dual = lift_augment(random_spanning(7, 3, 5))
        eliminations = []

        def counted(name):
            eliminate = getattr(exactnum, name)

            def call(M, ncols):
                eliminations.append(name)
                return eliminate(M, ncols)
            return call

        def no_solve(*args):
            raise AssertionError("ExactMatrix.solve called")

        for name in ("_rref_int", "_eliminate_int"):
            monkeypatch.setattr(exactnum, name, counted(name))
        monkeypatch.setattr(ExactMatrix, "solve", no_solve)
        pair = gale_pair_from_dual(dual)
        for r in range(3):
            c = tuple(F(k + r + 1, 3) for k in range(pair.dual.dim))
            assert dependence_to_functional(pair, dependence_of(pair, c)) == c
        assert eliminations == ["_rref_int"]
        assert not hasattr(galedual, "_eliminate_int")
        assert not hasattr(galedual, "_left_inverse_int")

    def test_perturbed_left_inverse_fails_postcondition(self, monkeypatch):
        pair = gale_pair_from_dual(lift_augment(random_spanning(7, 3, 6)))
        c = tuple(F(k + 1, 3) for k in range(pair.dual.dim))
        lam = dependence_of(pair, c)
        S, Ft, lead = pair._bridge
        assert dependence_to_functional(pair, lam) == c
        # Ft[k][j] is entry (j, k) of F, which weights lambda at S[j]
        cells = [(k, j) for k in range(len(Ft)) for j in range(len(S))
                 if lam[S[j]]]
        assert cells
        for k, j in cells:
            bad = [list(col) for col in Ft]
            bad[k][j] += 1
            monkeypatch.setitem(pair.__dict__, "_bridge", (S, bad, lead))
            with pytest.raises(VerificationBug,
                               match="does not reproduce lambda"):
                dependence_to_functional(pair, lam)

    @pytest.mark.parametrize("N", [3, 8])
    def test_perturbed_cyclotomic_functional_fails_postcondition(
            self, N, monkeypatch):
        pair = cyclotomic_pair(N, 5, 7300)
        zeta = Cyclotomic.root_of_unity(N)
        c = tuple(zeta * k + 1 for k in range(pair.dual.dim))
        lam = [hermitian_dot(c, g) for g in pair.dual.points]
        assert dependence_to_functional(pair, lam) == c
        eliminate = galedual._eliminate_cyclotomic
        m = pair.dual.dim
        for k in range(m):
            for delta in (Cyclotomic.from_rational(N, 1), zeta):
                # alpha_k is row k's last entry over its denominator
                def moved(data, M, dens, ncols, back, k=k,
                          shift=[int(x) for x in delta.coeffs]):
                    pivots = eliminate(data, M, dens, ncols, back)
                    M[k] = M[k][:m] + [[x + dens[k] * y for x, y in
                                        zip(M[k][m], shift)]]
                    return pivots

                monkeypatch.setattr(galedual, "_eliminate_cyclotomic", moved)
                with pytest.raises(VerificationBug,
                                   match="does not reproduce lambda"):
                    dependence_to_functional(pair, lam)

    def test_complex_bridge(self):
        i = Cyclotomic.root_of_unity(4)
        one = Cyclotomic.from_rational(4, 1)
        cfg = PointConfig(1, [[one], [i], [i * i]], 4)
        pair = gale_transform(cfg)
        alpha = [i, one][:pair.dual.dim]
        lam = functional_to_dependence(pair, alpha)
        back = dependence_to_functional(pair, lam)
        assert tuple(back) == tuple(alpha)

    def test_rational_pair_reads_rational_cyclotomic_lambda(self):
        pair = gale_transform(random_config(6, 2, seed=3))
        lam = functional_to_dependence(pair, [1, 0, 0])
        want = dependence_to_functional(pair, lam)
        assert dependence_to_functional(
            pair, [Cyclotomic.from_rational(4, x) for x in lam]) == want
        # zeta times a dependence has no rational value
        zeta = Cyclotomic.root_of_unity(4)
        with pytest.raises(PreconditionError, match="rational lambda"):
            dependence_to_functional(pair, [zeta * x for x in lam])


class TestFirstIndependentColumns:
    def test_dependent_leading_columns(self):
        v, w, u = (F(1, 2), F(-1), F(3)), (F(0), F(2, 3), F(1)), \
            (F(5), F(0), F(0))
        cols = [v, tuple(2 * x for x in v), (F(0),) * 3, w,
                tuple(a + b for a, b in zip(v, w)), u, w]
        assert ExactMatrix.from_columns(cols).pivot_columns() == \
            greedy_columns(cols) == [0, 3, 5]
        # the change of basis built on that choice is the one that maps
        T0 = ExactMatrix([[1, 2, 0], [0, 1, 0], [3, 0, -1]])
        dst = [T0.mul_vec(p) for p in cols]
        assert linear_change_of_basis(cols, dst) == T0

    def test_cyclotomic_dependent_leading_columns(self):
        i = Cyclotomic.root_of_unity(4)
        zero, one = Cyclotomic(4, []), Cyclotomic(4, [1])
        cols = [(one, i), (i, -one), (zero, zero), (one, one)]
        # (i, -1) = i (1, i), so the second column adds nothing
        assert ExactMatrix.from_columns(cols).pivot_columns() == [0, 3]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda m: st.lists(
        st.lists(st.integers(-2, 2).map(F), min_size=m, max_size=m),
        min_size=1, max_size=6)))
    def test_pivot_columns_are_greedy(self, cols):
        assert ExactMatrix.from_columns(cols).pivot_columns() == \
            greedy_columns(cols)


@st.composite
def point_configs(draw):
    N = draw(st.sampled_from([None, 3, 4, 8]))
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    coord = fracs if N is None else st.lists(fracs, max_size=6).map(
        lambda cs: Cyclotomic(N, cs))
    pts = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                        min_size=n, max_size=n))
    coloring = draw(st.none() | st.lists(st.integers(0, 2), min_size=n,
                                         max_size=n))
    return PointConfig(dim, pts, N, coloring)


class TestPointConfigJson:
    @settings(max_examples=150, deadline=None)
    @given(point_configs())
    def test_json_round_trip_property(self, cfg):
        obj = cfg.to_json()
        back = PointConfig.from_json(json.loads(json.dumps(obj)))
        assert back == cfg
        assert back.points == cfg.points
        assert back.conductor == cfg.conductor
        assert back.coloring == cfg.coloring
        assert back.to_json() == obj
        assert PointConfig.from_json(back.to_json()).to_json() == obj


    def test_rational_round_trip(self):
        cfg = PointConfig(2, [[F(1, 2), F(-3)], [F(0), F(7, 5)]],
                          coloring=[0, 1])
        assert PointConfig.from_json(cfg.to_json()) == cfg

    def test_cyclotomic_round_trip(self):
        i = Cyclotomic.root_of_unity(4)
        cfg = PointConfig(1, [[i], [i * 2 + 1]], 4)
        back = PointConfig.from_json(cfg.to_json())
        assert back == cfg
        assert back.conductor == 4


@pytest.mark.parametrize("obj,message", [
    ({"dim": -1, "points": []}, "dim must be nonnegative"),
    ({"dim": 1, "points": [[1], [2, 3]]}, "point 1 has 2 coordinates"),
    ({"dim": 1, "points": [[1], [2]], "coloring": [0]}, "coloring"),
    ({"dim": 1, "points": [[1], [2]], "coloring": [0, -1]}, "coloring"),
    ({"dim": 1, "points": [[1]], "field": {"cyclotomic": 0}},
     "field.cyclotomic"),
    ({"dim": 1, "points": [[{"N": 4, "coeffs": ["1", "1"]}]],
      "field": {"cyclotomic": 3}}, "differs from field"),
    ({"dim": 1, "points": [[{"N": 4, "coeffs": ["1", "1"]}]]},
     "differs from field"),
    ({"dim": 1, "points": [[{"N": 0, "coeffs": ["1"]}]]}, "coordinate"),
    ({"dim": 1, "points": [[True]]}, "coordinate"),
    ({"dim": True, "points": [[1]]}, "dim"),
], ids=["negative-dim", "ragged", "coloring-length", "negative-class",
        "field-N0", "coordinate-conductor", "cyclotomic-in-rational",
        "coordinate-N0", "boolean-coordinate", "boolean-dim"])
def test_malformed_json_is_precondition(obj, message):
    with pytest.raises(PreconditionError, match=message):
        PointConfig.from_json(obj)


def test_conductor_read_off_cyclotomic_coordinates():
    z3 = Cyclotomic.root_of_unity(3)
    cfg = PointConfig(1, [[z3], [F(1)]])
    assert cfg.conductor == 3
    assert cfg.points[1][0] == Cyclotomic.from_rational(3, 1)
    with pytest.raises(FieldMismatch, match="mixed conductors"):
        PointConfig(1, [[z3], [Cyclotomic.root_of_unity(4)]])
    with pytest.raises(FieldMismatch, match="mixed conductors"):
        PointConfig(1, [[z3]], 4)


# -- the integer path against the field path ---------------------------------
#
# The prepare and functional layers in plain Fraction / Cyclotomic
# arithmetic: sums of scalars, conj() per entry and a Gauss-Jordan pass
# that divides by field elements.  The library runs the same steps on
# integer coefficient vectors; these are its oracle.

def lift_augment_field(config):
    """The lifted points and their negated sum, added as scalars."""
    one = scalar_one(config.conductor)
    lifted = [tuple(p) + (one,) for p in config.points]
    lifted.append(tuple(-sum(col[1:], col[0]) for col in zip(*lifted)))
    return PointConfig(config.dim + 1, lifted, config.conductor, None)


def sums_to_zero_field(dual):
    zero = scalar_zero(dual.conductor)
    return all(scalar_is_zero(sum(col, zero)) for col in zip(*dual.points))


def primal_field(dual):
    """The inverse Gale transform's primal: the kernel basis of B but its
    first vector, conjugated entry by entry."""
    kb = kernel_oracle(dual.points, scalar_one(dual.conductor))
    return tuple(tuple(conj(v[j]) for v in kb[1:]) for j in range(dual.n))


def is_dependence_field(primal, lam):
    """An affine dependence of the primal, possibly zero."""
    zero = scalar_zero(primal.conductor)
    return scalar_is_zero(sum(lam, zero)) and all(
        scalar_is_zero(sum((x * p[i] for x, p in zip(lam, primal.points)),
                           zero)) for i in range(primal.dim))


def functional_field(pair, lam):
    """The alpha with <alpha, g_i> = lambda_i, from a Gauss-Jordan pass
    over the n rows conj(g_i) | lambda_i."""
    m = pair.dual.dim
    rows = [[conj(c) for c in g] + [x]
            for g, x in zip(pair.dual.points, lam)]
    pivots = []
    for col in range(m + 1):
        prow = len(pivots)
        pivot = next((r for r in range(prow, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[prow], rows[pivot] = rows[pivot], rows[prow]
        pv = rows[prow][col]
        rows[prow] = [e / pv for e in rows[prow]]
        for r in range(len(rows)):
            if r != prow and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[prow])]
        pivots.append(col)
    assert pivots == list(range(m)), "lambda is not <alpha, g_i>"
    return tuple(rows[k][m] for k in range(m))


@st.composite
def integer_path_cases(draw):
    """(config, c): a spanning configuration over Q or Q(zeta_N), N in
    {3, 4, 5, 8, 12}, with coordinates that vanish and repeat, and a
    nonzero functional c on its lifted dual."""
    N = draw(st.sampled_from((None, 3, 4, 5, 8, 12)))
    coord = fracs if N is None else st.lists(fracs, max_size=4).map(
        lambda cs: Cyclotomic(N, cs))
    D = draw(st.integers(1, 2))
    n = draw(st.integers(D + 2, D + 4))
    pts = draw(st.lists(st.lists(coord, min_size=D, max_size=D),
                        min_size=n, max_size=n))
    cfg = PointConfig(D, pts, N)
    assume(cfg.affinely_spanning())
    m = D + 1
    c = draw(st.lists(coord, min_size=m, max_size=m))
    assume(any(c))
    return cfg, tuple(c)


class TestIntegerPath:
    @settings(max_examples=150, deadline=None)
    @given(integer_path_cases(), st.data())
    def test_matches_field_arithmetic(self, case, data):
        cfg, c = case
        N = cfg.conductor
        dual = lift_augment(cfg)
        assert dual == lift_augment_field(cfg)
        assert sums_to_zero_field(dual)
        pair = gale_pair_from_dual(dual)
        assert pair.primal.points == primal_field(dual)
        # the primal grid was seeded by the transform, not cleared again
        assert "_primal_grid" in pair.__dict__
        # lambda_i = <c, g_i> is a dependence, and its functional is c
        lam = [hermitian_dot(c, g) for g in dual.points]
        assert _is_dependence(pair, lam)
        assert dependence_to_functional(pair, lam) == \
            functional_field(pair, lam) == c
        # moving one weight keeps a dependence only by chance
        unit = F(1) if N is None else Cyclotomic.root_of_unity(
            N, data.draw(st.integers(0, N - 1)))
        j = data.draw(st.integers(0, dual.n - 1))
        moved = list(lam)
        moved[j] += unit * data.draw(fracs.filter(bool))
        assert _is_dependence(pair, moved) == \
            is_dependence_field(pair.primal, moved)
        # a dual moved at one coordinate no longer sums to zero
        k = data.draw(st.integers(0, dual.dim - 1))
        pts = [list(g) for g in dual.points]
        pts[j][k] += unit
        perturbed = PointConfig(dual.dim, pts, N)
        assert not sums_to_zero_field(perturbed)
        with pytest.raises(NonzeroSum):
            gale_pair_from_dual(perturbed)

    @pytest.mark.parametrize("N", [3, 4, 8])
    def test_pipeline_conjugates_no_scalar(self, monkeypatch, N):
        """Over Q(zeta_N) the inverse transform, its pair check and the
        functionals conjugate integer coefficient vectors only."""
        dual = lift_augment(random_config(6, 4, field=N, seed=7300))
        c = tuple(Cyclotomic.root_of_unity(N, k) for k in range(dual.dim))
        lam = [hermitian_dot(c, g) for g in dual.points]

        def no_conjugate(self):
            raise AssertionError("a Cyclotomic was conjugated")

        monkeypatch.setattr(Cyclotomic, "conjugate", no_conjugate)
        pair = gale_pair_from_dual(dual)
        pair.validate()
        assert dependence_to_functional(pair, lam) == c
        if N != 8:  # the Q(zeta_8) search finds no tuple (a known defect)
            X = random_config(6, 4, field=N, seed=7300,
                              coloring=[0, 0, 0, 1, 1, 1])
            assert equidistribute(X, 2).report.passes
