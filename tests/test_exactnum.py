import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations, permutations
from math import lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fandist
from fandist.errors import VerificationBug
from fandist.exactnum import (
    Cyclotomic,
    ExactMatrix,
    FieldMismatch,
    _back_eliminate,
    _clear,
    _det_int,
    _eliminate_int,
    _field_data,
    _kernel_int,
    _rref_int,
    conj,
    cyclotomic_poly,
    hermitian_dot,
    scalar_from_json,
    scalar_to_json,
)
from fandist.fans import CENTER, INTERIOR, OUTSIDE, Classification, ComplexFan
from fandist.galedual import PointConfig, _dual_kernel, lift_augment
from fandist.genpos import random_config


def poly_divide_oracle(num, den):
    """Plain long division over Q, independent of the library internals."""
    num = [F(c) for c in num]
    dd = len(den) - 1
    q = [F(0)] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] / den[dd]
        q[i - dd] = c
        for j in range(dd + 1):
            num[i - dd + j] -= c * den[j]
    assert all(c == 0 for c in num[:dd]), "nonzero remainder"
    return q


class TestCyclotomicPoly:
    def test_n1(self):
        assert cyclotomic_poly(1) == (-1, 1)

    def test_n4(self):
        assert cyclotomic_poly(4) == (1, 0, 1)

    def test_n12_against_division_oracle(self):
        # divide x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6
        prod = [1]
        for d in (1, 2, 3, 4, 6):
            phi = cyclotomic_poly(d)
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
        x12 = [0] * 13
        x12[0], x12[12] = -1, 1
        q = poly_divide_oracle(x12, prod)
        assert tuple(int(c) for c in q) == cyclotomic_poly(12)
        assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic_poly(0)


class TestConjugation:
    def test_rational_fixed(self):
        assert conj(F(3, 2)) == F(3, 2)

    def test_i_negates(self):
        i = Cyclotomic.root_of_unity(4)
        assert conj(i) == -i

    def test_zeta3_reduction(self):
        # conj(zeta) = zeta^2 = -1 - zeta mod Phi_3 = x^2 + x + 1
        z = Cyclotomic.root_of_unity(3)
        assert conj(z).coeffs == (F(-1), F(-1))

    def test_involution_and_homomorphism(self):
        rng = random.Random(1)
        for N in (3, 4, 5, 12):
            deg = len(cyclotomic_poly(N)) - 1
            for _ in range(50):
                a = Cyclotomic(N, [F(rng.randint(-9, 9), rng.randint(1, 9))
                                   for _ in range(deg)])
                b = Cyclotomic(N, [F(rng.randint(-9, 9), rng.randint(1, 9))
                                   for _ in range(deg)])
                assert conj(conj(a)) == a
                assert conj(a * b) == conj(a) * conj(b)
                assert conj(a + b) == conj(a) + conj(b)


class TestFieldAxioms:
    def test_thousand_random_samples(self):
        rng = random.Random(7)

        def rational():
            return F(rng.randint(-50, 50), rng.randint(1, 50))

        def cyclo(N, deg):
            return Cyclotomic(N, [rational() for _ in range(deg)])

        for trial in range(1000):
            if trial % 2 == 0:
                a, b, c = rational(), rational(), rational()
            else:
                N = (3, 4, 12)[trial % 3]
                deg = len(cyclotomic_poly(N)) - 1
                a, b, c = (cyclo(N, deg) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a != 0:
                assert a * (1 / a if isinstance(a, F) else a.inverse()) == 1


class TestHermitianDot:
    def test_unit_vector(self):
        assert hermitian_dot([F(1), F(0)], [F(1), F(0)]) == 1

    def test_i_norm(self):
        i = Cyclotomic.root_of_unity(4)
        assert hermitian_dot([i], [i]) == 1

    def test_rational_expansion(self):
        assert hermitian_dot([F(1), F(2)], [F(3), F(-1)]) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hermitian_dot([F(1)], [F(1), F(2)])

    def test_self_dot_positive_rational_over_gaussian(self):
        rng = random.Random(3)
        for _ in range(25):
            u = [Cyclotomic(4, [F(rng.randint(-9, 9)), F(rng.randint(-9, 9))])
                 for _ in range(3)]
            if all(x.is_zero() for x in u):
                continue
            d = hermitian_dot(u, u)
            assert d.is_rational() and d.coeffs[0] > 0


class TestKernelBasis:
    def test_identity_injective(self):
        M = ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert M.kernel_basis() == []

    def test_hand_elimination(self):
        M = ExactMatrix([[0, 1, 2], [1, 1, 1]])
        basis = M.kernel_basis()
        assert len(basis) == 1
        b = basis[0]
        # proportional to (1, -2, 1)
        assert b[0] == b[2] and b[1] == -2 * b[0] and b[0] != 0
        assert all(x == 0 for x in M.mul_vec(b))

    def test_zero_matrix_full_kernel(self):
        M = ExactMatrix([[0, 0, 0], [0, 0, 0]])
        basis = M.kernel_basis()
        assert len(basis) == 3
        assert ExactMatrix.from_columns(basis).rank() == 3

    def test_exactness_and_independence_random(self):
        rng = random.Random(11)
        for _ in range(30):
            rows = rng.randint(1, 4)
            cols = rng.randint(rows, 6)
            M = ExactMatrix([[F(rng.randint(-5, 5)) for _ in range(cols)]
                             for _ in range(rows)])
            basis = M.kernel_basis()
            assert len(basis) == cols - M.rank()
            for b in basis:
                assert all(x == 0 for x in M.mul_vec(b))
            if basis:
                assert ExactMatrix.from_columns(basis).rank() == len(basis)

    def test_cyclotomic_kernel(self):
        i = Cyclotomic.root_of_unity(4)
        M = ExactMatrix([[i, Cyclotomic.from_rational(4, 1)]])
        basis = M.kernel_basis()
        assert len(basis) == 1
        assert all(x.is_zero() for x in M.mul_vec(basis[0]))


def rational_sign(x, N=4):
    """x classified by the 2-fan alpha = 1, beta = 0 over Q(zeta_N), whose
    value at x is conj(x): interior(0) for a positive rational,
    interior(1) for a negative one, center for zero, and outside with the
    not-rational-real diagnostic for an element outside Q."""
    return ComplexFan(2, N, [1], 0).classify([x])


class TestPositivity:
    """The sign of a field element within the rational subfield, as
    complex fan classification decides it on integer coefficients."""

    def test_positive_rational(self):
        assert rational_sign(F(5, 3)) == Classification(INTERIOR, 0)

    def test_zero_and_negative(self):
        assert rational_sign(F(0)) == Classification(CENTER)
        assert rational_sign(F(-2)) == Classification(INTERIOR, 1)

    def test_i_not_rational(self):
        i = Cyclotomic.root_of_unity(4)
        assert rational_sign(i) == \
            Classification(OUTSIDE, diagnostic="not-rational-real")

    def test_reduced_zeta3_element(self):
        z = Cyclotomic(3, [F(-1), F(-1)])  # = zeta^2 after reduction
        assert z == Cyclotomic.root_of_unity(3, 2)
        assert rational_sign(z, 6) == \
            Classification(OUTSIDE, diagnostic="not-rational-real")

    def test_rational_valued_cyclotomic(self):
        z = Cyclotomic.root_of_unity(4)
        assert rational_sign(z * z) == Classification(INTERIOR, 1)
        assert rational_sign(z * z * z * z) == Classification(INTERIOR, 0)


class TestFieldDiscipline:
    def test_conductor_mismatch(self):
        a = Cyclotomic.root_of_unity(3)
        b = Cyclotomic.root_of_unity(4)
        with pytest.raises(FieldMismatch):
            _ = a + b

    def test_rational_promotion(self):
        a = Cyclotomic.root_of_unity(4)
        assert (a + 1) - 1 == a
        assert F(1, 2) * a == a / 2

    def test_embed(self):
        z3 = Cyclotomic.root_of_unity(3)
        z12 = z3.embed(12)
        assert z12 == Cyclotomic.root_of_unity(12, 4)
        with pytest.raises(FieldMismatch):
            z3.embed(8)


class TestSerialization:
    def test_rational_round_trip(self):
        assert scalar_from_json(scalar_to_json(F(-7, 3))) == F(-7, 3)

    def test_cyclotomic_round_trip(self):
        a = Cyclotomic(12, [F(1, 2), F(-3), F(0), F(5, 7)])
        assert scalar_from_json(scalar_to_json(a)) == a


REIMPORT_SCRIPT = """
import gc, sys, weakref
import fandist.pipeline
old = [weakref.ref(sys.modules["fandist.exactnum"].Cyclotomic),
       weakref.ref(sys.modules["fandist.fans"].RealFan)]
for name in [m for m in sys.modules if m.split(".")[0] == "fandist"]:
    del sys.modules[name]
import fandist.pipeline
gc.collect()
print(sum(r() is not None for r in old))
"""


def test_reimport_frees_the_old_modules():
    # module-level type aliases must not pin a dropped copy of the package
    src = os.path.dirname(os.path.dirname(fandist.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", REIMPORT_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0"]


class TestLongCoefficientLists:
    """Powers zeta^p with p >= N reduce through zeta^N = 1."""

    def test_zeta3_cubed_is_one(self):
        assert Cyclotomic(3, [0, 0, 0, 1]) == 1

    def test_zeta4_ninth_power(self):
        assert Cyclotomic(4, [0] * 9 + [1]) == Cyclotomic.root_of_unity(4, 9)

    def test_point_config_from_json(self):
        cfg = random_config(6, 4, field=3, seed=5)
        blob = cfg.to_json()
        c0, c1 = blob["points"][0][0]["coeffs"]
        # c0 + c1 zeta == (c0 - 1) + c1 zeta + zeta^3
        blob["points"][0][0]["coeffs"] = [str(F(c0) - 1), c1, "0", "1"]
        assert PointConfig.from_json(blob) == cfg


# --------------------------------------------------------------------------
# property tests against oracles kept in this file

CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 9, 12)


def phi_degree(N):
    return len(cyclotomic_poly(N)) - 1


def reduce_oracle(poly, N):
    """Remainder of sum_p poly[p] x^p by Phi_N, by long division over Q."""
    phi = cyclotomic_poly(N)
    dd = len(phi) - 1
    num = [F(c) for c in poly] + [F(0)] * max(0, dd - len(poly))
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        for j in range(dd + 1):
            num[i - dd + j] -= c * phi[j]
    return tuple(num[:dd])


def mul_oracle(a, b):
    """Schoolbook Fraction convolution reduced mod Phi_N."""
    conv = [F(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            conv[i + j] += x * y
    return reduce_oracle(conv, a.N)


def _divmod_frac(num, den):
    num = list(num)
    dd = len(den) - 1
    q = [F(0)] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] / den[-1]
        if c:
            q[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    while num and not num[-1]:
        num.pop()
    return q, num


def _mul_frac(a, b):
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _sub(a, b):
    out = list(a) + [F(0)] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    while out and not out[-1]:
        out.pop()
    return out


def inverse_oracle(a):
    """Extended Euclid in Q[x] against Phi_N; returns reduced coefficients."""
    phi = [F(c) for c in cyclotomic_poly(a.N)]
    r0, r1 = phi, list(a.coeffs)
    while r1 and not r1[-1]:
        r1.pop()
    s0, s1 = [], [F(1)]
    while r1:
        q, rem = _divmod_frac(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _sub(s0, _mul_frac(q, s1))
    return reduce_oracle([x / r0[0] for x in s0], a.N)


def rref_oracle(rows, cols):
    """RREF that divides a pivot row entry by entry."""
    grid = [list(r) for r in rows]
    pivots = []
    prow = 0
    for col in range(cols):
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
        prow += 1
        if prow == len(grid):
            break
    return grid, pivots


fractions = st.builds(F, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def elements(draw, N, nonzero=False):
    coeffs = draw(st.lists(fractions, min_size=phi_degree(N),
                           max_size=phi_degree(N)))
    if draw(st.integers(0, 5)) == 0:
        coeffs = [F(0)] * len(coeffs)
    a = Cyclotomic(N, coeffs)
    if nonzero and a.is_zero():
        a = Cyclotomic(N, [1])
    return a


@st.composite
def field_pairs(draw):
    N = draw(st.sampled_from(CONDUCTORS))
    return draw(elements(N)), draw(elements(N))


@st.composite
def shaped_elements(draw, N):
    """Zero, rational or general elements of Q(zeta_N), about equally."""
    shape = draw(st.sampled_from(("zero", "rational", "general")))
    if shape == "zero":
        return Cyclotomic(N, [])
    if shape == "rational":
        return Cyclotomic(N, [draw(fractions)])
    return draw(elements(N))


@st.composite
def shaped_pairs(draw):
    N = draw(st.sampled_from(CONDUCTORS))
    return draw(shaped_elements(N)), draw(shaped_elements(N))


@st.composite
def matrices(draw):
    """Matrices over Q (N is None) or Q(zeta_N), often rank-deficient, and
    a right-hand side, often inconsistent.

    Half the shapes are small (up to 4 x 4) over every conductor, half
    are up to 6 x 8, as the pipeline's duals are, over N in {5, 8, 12}.
    Rows repeat, and a zero row or a combination of two rows with field
    coefficients may join them.  The right-hand side is drawn at random,
    so inconsistent when the rows are dependent, or is M x.
    """
    if draw(st.booleans()):
        N, most_rows, most_cols = draw(st.none() | st.sampled_from(
            CONDUCTORS)), 4, 4
    else:
        N, most_rows, most_cols = draw(st.sampled_from((5, 8, 12))), 6, 8
    entries = fractions if N is None else elements(N)
    cols = draw(st.integers(1, most_cols))
    distinct = draw(st.lists(st.lists(entries, min_size=cols,
                                      max_size=cols),
                             min_size=1, max_size=most_rows - 1))
    if draw(st.booleans()):
        a, b = draw(entries), draw(entries)
        distinct.append([a * x + b * y
                         for x, y in zip(distinct[0], distinct[-1])])
    if draw(st.booleans()):
        distinct.append([e - e for e in distinct[0]])
    order = draw(st.lists(st.integers(0, len(distinct) - 1),
                          min_size=most_rows - 3, max_size=most_rows))
    rows = [distinct[i] for i in order]
    if draw(st.booleans()):
        rhs = [draw(entries) for _ in order]
    else:
        x = [draw(entries) for _ in range(cols)]
        rhs = [sum((a * b for a, b in zip(row, x)), x[0] - x[0])
               for row in rows]
    return N, rows, cols, rhs


def oracle_kernel(rows, cols, N):
    """The kernel basis read off ``rref_oracle``: per free column f, one at
    f, zero at the other free columns, minus row k's entry at f at the
    pivot column of row k."""
    grid, pivots = rref_oracle(rows, cols)
    zero, one = (F(0), F(1)) if N is None else \
        (Cyclotomic(N, []), Cyclotomic(N, [1]))
    kernel = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [zero] * cols
        vec[f] = one
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -grid[prow][f]
        kernel.append(tuple(vec))
    return kernel


@st.composite
def integer_matrices(draw, bound=6):
    """Small integer matrices, wide, tall, square or zero: entries of at
    most bound, negative ones (so negative pivots) and zeros, repeated
    rows, zero rows and combinations keeping the rank short, and up to
    two columns past the ncols that are reduced.  Returns (rows, ncols)."""
    cols = draw(st.integers(1, 7))
    width = cols + draw(st.integers(0, 2))
    ints = st.integers(-bound, bound) | st.just(0)
    distinct = draw(st.lists(st.lists(ints, min_size=width,
                                      max_size=width),
                             min_size=1, max_size=4))
    if draw(st.booleans()):
        distinct.append([0] * width)
    if draw(st.booleans()):
        a, b = draw(ints), draw(ints)
        distinct.append([a * x + b * y
                         for x, y in zip(distinct[0], distinct[-1])])
    order = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1,
                          max_size=8))
    rows = [list(distinct[i]) for i in order]
    if draw(st.integers(0, 9)) == 0:
        rows = [[0] * width for _ in rows]
    return rows, cols


class ExactInt(int):
    """An int whose products, differences and quotients stay ExactInt,
    and whose floor division fails on a nonzero remainder."""

    divisions = 0

    def __mul__(self, other):
        return ExactInt(int(self) * int(other))

    __rmul__ = __mul__

    def __sub__(self, other):
        return ExactInt(int(self) - int(other))

    def __floordiv__(self, other):
        q, rem = divmod(int(self), int(other))
        assert not rem, f"{int(self)} // {int(other)} leaves {rem}"
        ExactInt.divisions += 1
        return ExactInt(q)


def one_pass(rows, cols):
    M = [list(row) for row in rows]
    return (M, *_rref_int(M, cols))


def two_passes(rows, cols):
    M = [list(row) for row in rows]
    pivots = _eliminate_int(M, cols)
    return M, pivots, _back_eliminate(M, pivots)


@st.composite
def square_matrices(draw):
    """Square integer matrices up to 5 x 5 with zeros, and sometimes a
    last row that combines two others, so the determinant is zero.  Half
    are at most 3 x 3, the sizes of the closed forms, 0 x 0 among them."""
    n = draw(st.integers(0, 3) | st.integers(4, 5))
    ints = st.integers(-99, 99) | st.just(0)
    rows = draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 2 and draw(st.booleans()):
        a, b = draw(ints), draw(ints)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


class TestReducedEchelonForm:
    @settings(max_examples=300, deadline=None)
    @example([])
    @example([[-7]])
    @example([[0, 2], [3, 5]])
    @example([[0, 0, 2], [0, 3, 1], [5, 1, 1]])
    @given(square_matrices())
    def test_det_against_permutation_expansion(self, rows):
        # Leibniz's signed sum over permutations (1 for the empty matrix);
        # every division of the elimination is exact, and the rows are
        # left as given
        n = len(rows)
        pairs = list(combinations(range(n), 2))
        want = sum((-1) ** sum(p[a] > p[b] for a, b in pairs)
                   * prod(rows[k][p[k]] for k in range(n))
                   for p in permutations(range(n)))
        given_rows = [list(row) for row in rows]
        assert _det_int([[ExactInt(x) for x in row] for row in rows]) == want
        assert _det_int(rows) == want and rows == given_rows

    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_against_rref_oracle(self, case):
        rows, cols = case
        grid, oracle_pivots = rref_oracle([[F(x) for x in row]
                                           for row in rows], cols)
        rank = len(oracle_pivots)
        # both forms are lead times the oracle's rows, so they agree
        for M, pivots, lead in (one_pass(rows, cols),
                                two_passes(rows, cols)):
            assert [pc for _, pc in pivots] == oracle_pivots
            assert [pr for pr, _ in pivots] == list(range(rank))
            # lead is the least positive scale making the reduced form
            # integral, columns past ncols included
            assert lead > 0
            assert lead == lcm(*(x.denominator for row in grid[:rank]
                                 for x in row))
            for (pr, _), row in zip(pivots, grid):
                assert M[pr] == [lead * x for x in row]
            assert not any(x for row in M[rank:] for x in row[:cols])
            free = [c for c in range(cols) if c not in oracle_pivots]
            kernel = _kernel_int(M, pivots, lead, cols)
            assert len(kernel) == cols - rank
            for f, v in zip(free, kernel):
                assert all(sum(a * b for a, b in zip(row, v)) == 0
                           for row in rows)
                assert [v[g] for g in free] == \
                    [lead if g == f else 0 for g in free]

    @settings(max_examples=300, deadline=None)
    @given(integer_matrices(99))
    def test_one_pass_divisions_are_exact(self, case):
        # every entry is a minor, so no division may leave a remainder;
        # dividing by the current pivot, or leaving a row whose pivot
        # column is zero unscaled, does
        rows, cols = case
        ExactInt.divisions = 0
        M, pivots, lead = one_pass([[ExactInt(x) for x in row]
                                    for row in rows], cols)
        if len(pivots) > 1:
            assert ExactInt.divisions > 0
        assert (M, pivots, lead) == one_pass(rows, cols)

    def test_one_pass_entries_are_minors(self):
        # the pivot -4 sits in the second row; it scales the first row,
        # zero in its column, to (0, 12, 0), and the next pivot 12 clears
        # the second row's 5 as (12 (-4, 5, 1) - 5 (0, 12, 0)) // -4
        ExactInt.divisions = 0
        M, pivots, lead = one_pass([[ExactInt(x) for x in row] for row in
                                    ([0, -3, 0], [-4, 5, 1])], 3)
        assert pivots == [(0, 0), (1, 1)] and lead == 4
        assert M == [[4, 0, -1], [0, 4, 0]]
        assert ExactInt.divisions > 0


class TestCyclotomicProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(CONDUCTORS), st.lists(fractions, max_size=30))
    def test_construction_reduces_mod_phi(self, N, coeffs):
        assert Cyclotomic(N, coeffs).coeffs == reduce_oracle(coeffs, N)

    @settings(max_examples=200, deadline=None)
    @given(field_pairs())
    def test_mul_against_convolution(self, pair):
        a, b = pair
        assert (a * b).coeffs == mul_oracle(a, b)

    @settings(max_examples=300, deadline=None)
    @given(shaped_pairs())
    def test_mul_short_cuts_against_integer_convolution(self, pair):
        # zero and rational operands skip the convolution; the product
        # must equal the full integer one, on either side and with a bare
        # int or Fraction operand
        a, b = pair
        x, dx = _clear(a.coeffs)
        y, dy = _clear(b.coeffs)
        full = Cyclotomic._from_int(a.N, _field_data(a.N).mul_int(x, y),
                                    dx * dy)
        assert (a * b).coeffs == full.coeffs
        assert (b * a).coeffs == full.coeffs
        if b.is_rational():
            q = b.coeffs[0]
            assert (a * q).coeffs == (q * a).coeffs == full.coeffs
            if q.denominator == 1:
                assert (a * int(q)).coeffs == full.coeffs
        assert all(type(c) is F for c in (a * b).coeffs)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(CONDUCTORS).flatmap(
        lambda N: elements(N, nonzero=True)))
    def test_inverse_against_euclid(self, a):
        inv = a.inverse()
        assert inv.coeffs == inverse_oracle(a)
        assert a * inv == 1

    @settings(max_examples=200, deadline=None)
    @given(field_pairs())
    def test_conjugation_laws(self, pair):
        a, b = pair
        assert conj(conj(a)) == a
        assert conj(a * b) == conj(a) * conj(b)
        assert conj(a + b) == conj(a) + conj(b)

    @pytest.mark.parametrize("N", CONDUCTORS)
    def test_zero_has_no_inverse(self, N):
        with pytest.raises(ZeroDivisionError):
            Cyclotomic(N, []).inverse()

    def test_norm_outside_q_is_a_bug(self, monkeypatch):
        # dropping a conjugate from the norm leaves an irrational "norm"
        monkeypatch.setattr(_field_data(5), "galois", (2, 3))
        zeta = Cyclotomic.root_of_unity(5)
        with pytest.raises(VerificationBug):
            zeta.inverse()
        # the elimination normalises its pivot rows by the same norm
        with pytest.raises(VerificationBug):
            ExactMatrix([[zeta, zeta + 1]]).kernel_basis()


class TestMatrixOverCyclotomic:
    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_against_rref_oracle(self, case):
        N, rows, cols, rhs = case
        M = ExactMatrix(rows, N)
        pivots = rref_oracle(rows, cols)[1]
        assert M.pivot_columns() == pivots
        assert M.rank() == len(pivots)
        assert M.kernel_basis() == oracle_kernel(rows, cols, N)
        zero = F(0) if N is None else Cyclotomic(N, [])
        aug, apiv = rref_oracle([r + [b] for r, b in zip(rows, rhs)],
                                cols + 1)
        if cols in apiv:
            assert M.solve(rhs) is None
        else:
            x = [zero] * cols
            for prow, pcol in enumerate(apiv):
                x[pcol] = aug[prow][cols]
            assert M.solve(rhs) == tuple(x)

    def test_pipeline_dual_kernel_against_rref_oracle(self):
        # B, whose columns are the lifted, augmented points, as the
        # inverse Gale transform reduces it
        dual = lift_augment(random_config(6, 4, field=8, seed=7300))
        B = [list(row) for row in zip(*dual.points)]
        kernel = ExactMatrix(B, 8).kernel_basis()
        assert len(kernel) == dual.n - dual.dim
        assert kernel == oracle_kernel(B, dual.n, 8)


def seeded_rational_cases():
    """Seeded rational matrices with right-hand sides: wide, tall and
    square shapes, each made rank-deficient by a repeated row, a zero row
    or a combination of two rows about half the time; the right-hand side
    is M x (consistent) or drawn at random (inconsistent when the rows
    are dependent)."""
    rng = random.Random(34)
    cases = []
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 9)
        M = [[F(rng.randint(-40, 40), rng.randint(1, 12))
              for _ in range(cols)] for _ in range(rows)]
        defect = rng.randint(0, 5)
        if defect == 1:
            M.append(list(M[0]))
        elif defect == 2:
            M.append([F(0)] * cols)
        elif defect == 3:
            a, b = F(rng.randint(-5, 5), 3), F(rng.randint(-5, 5), 2)
            M.append([a * x + b * y for x, y in zip(M[0], M[-1])])
        if rng.random() < 0.5:
            x = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(cols)]
            rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in M]
        else:
            rhs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in M]
        cases.append((M, rhs))
    return cases


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, default=str).encode()).hexdigest()


class TestPinnedReductions:
    """sha256 pins of what the rational reduction returns.  The reduced
    row echelon form times its least common denominator is unique, so
    these pins hold for any exact method that keeps the pivot rule."""

    @pytest.mark.parametrize("seed,coloring,pin", [
        (4000, None, ("ccc346c2139c01be196af30f440b51dd"
                      "0d0a7a65f0708a42c88ff56024eb6f14")),
        (4001, None, ("1e66b5d4f9c1cd87c8148f9bfa9fcece"
                      "afe4b44a5188368d701ade5443359513")),
        (4002, None, ("f49f5fe94a5d5a65830ddf975a6f0f34"
                      "1d70b072e8b28e733588f979ef9848b9")),
        (4003, None, ("199833e273e09f4b5069befc4cee67a2"
                      "ef8fdc1e75747deea01cddffa7b3e60a")),
        (1000, [0] * 5 + [1] * 5, ("be328bbae715807512247a14886941e7"
                                   "d3c4c54ac5c63ca957037f23282aa9ca")),
        (1001, [0] * 5 + [1] * 5, ("73b5ef7a38fc646fca11b0a0b5957722"
                                   "ae204b33fc0c1aeba45bb69ee550fac9")),
    ])
    def test_dual_kernel(self, seed, coloring, pin):
        dual = lift_augment(random_config(10, 8, seed=seed,
                                          coloring=coloring))
        assert digest(_dual_kernel(dual)) == pin

    def test_kernel_basis_solve_and_rank(self):
        out = []
        for M, rhs in seeded_rational_cases():
            mat = ExactMatrix(M)
            out.append([mat.rank(), mat.kernel_basis(), mat.solve(rhs)])
        assert sum(row[2] is None for row in out) == 21
        assert digest(out) == ("4d2b8bd33c9a9ae0fb85812fd4f640cb"
                               "34ec20190c592e9ec55ad2f321e459d2")
