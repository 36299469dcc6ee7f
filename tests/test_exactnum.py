import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import fandist
from fandist.exactnum import (
    Cyclotomic,
    ExactMatrix,
    FieldMismatch,
    Positivity,
    conj,
    cyclotomic_poly,
    hermitian_dot,
    is_positive_rational,
    scalar_from_json,
    scalar_to_json,
)


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
            assert is_positive_rational(hermitian_dot(u, u)) \
                is Positivity.POSITIVE


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


class TestPositivity:
    def test_positive_rational(self):
        assert is_positive_rational(F(5, 3)) is Positivity.POSITIVE

    def test_zero_and_negative(self):
        assert is_positive_rational(F(0)) is Positivity.ZERO
        assert is_positive_rational(F(-2)) is Positivity.NEGATIVE

    def test_i_not_rational(self):
        i = Cyclotomic.root_of_unity(4)
        assert is_positive_rational(i) is Positivity.NOT_RATIONAL

    def test_reduced_zeta3_element(self):
        z = Cyclotomic(3, [F(-1), F(-1)])  # = zeta^2 after reduction
        assert is_positive_rational(z) is Positivity.NOT_RATIONAL

    def test_rational_valued_cyclotomic(self):
        z = Cyclotomic.root_of_unity(4)
        assert is_positive_rational(z * z) is Positivity.NEGATIVE
        assert is_positive_rational(z * z * z * z) is Positivity.POSITIVE


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
