"""Exact scalar fields and exact linear algebra.

Two scalar kinds are supported everywhere in this package:

* rationals, represented directly by :class:`fractions.Fraction`;
* elements of a cyclotomic field Q(zeta_N), represented in the power
  basis ``1, zeta, ..., zeta^(phi(N)-1)`` reduced modulo the N-th
  cyclotomic polynomial.

Phi_N is monic, so every power zeta^p reduces to an integer vector.
Cyclotomic products, Galois actions and inverses run on integer
numerators over one common denominator and build their Fractions once;
the inverse is the product of the other Galois conjugates divided by the
norm (Cohen, A Course in Computational Algebraic Number Theory, 4.3).

Exact linear algebra reads one integer form: lead times the reduced row
echelon form, lead the least common denominator, which is unique.
``_eliminate_int`` is fraction-free forward elimination: it clears each
pivot column by cross-multiplying rows and divides every row by its
content, so rows stay primitive.  ``_back_eliminate`` finishes the form
the same way, with every pivot row scaled to one common positive pivot,
and ``_kernel_int`` reads its integer kernel; the hull flats, weight
systems, barycentric maps and fan normalisation of the package reduce
in these two passes.  Rational matrices, the inverse Gale transform's
[B | I] among them, reach the same form in one pass, ``_rref_int``:
Gauss-Jordan elimination with the exact division of Bareiss (1968),
every row cleared to integers first; ``_det_int`` runs its forward half
alone for a determinant, past the closed forms of sizes up to 3.  A
search's maximal minors of one fixed matrix are read off one reduction:
its reduced form against a basis B, scaled by D = det(B), holds every
minor with one column of B replaced, and any other minor is a smaller
determinant of those, divided by a power of D (Sylvester's identity).

Matrices over Q(zeta_N) reduce by Gauss-Jordan elimination on integer
rows: each row is cleared to integer coefficient vectors over one
denominator, each pivot row is divided by its pivot through the pivot's
norm cofactor (the same product of conjugates the inverse uses), and
every row is kept reduced by the gcd of its integers and its
denominator, so it holds exactly the values of field elimination.
Either way Fractions are built only for the values read off the form.
The same integer coefficient vectors serve the rest of the Q(zeta_N)
path: the inverse Gale transform takes its kernel as integer coefficient
vectors, the Gale functional is one square ``_eliminate_cyclotomic``
solve, and complex fans classify a point by ``_FieldData.dot_int`` and
the power table, deciding each sign on integers.

All arithmetic is exact; nothing in this module (or the package) ever
rounds.  Values are immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from fandist.errors import PreconditionError, VerificationBug

__all__ = [
    "Cyclotomic",
    "ExactMatrix",
    "FieldMismatch",
    "Scalar",
    "conj",
    "cyclotomic_poly",
    "hermitian_dot",
    "integer_grid",
    "scalar_from_json",
    "scalar_to_json",
]


class FieldMismatch(ValueError):
    """Raised when scalars from incompatible fields are combined."""


# --------------------------------------------------------------------------
# integer polynomials (ascending coefficients), used to build Phi_N

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divmod_monic_int(num, den):
    # den is monic with integer coefficients, so the quotient is integral
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            q[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    while num and num[-1] == 0:
        num.pop()
    return q, num


_CYCLOTOMIC_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_poly(N: int) -> tuple[int, ...]:
    """N-th cyclotomic polynomial Phi_N as ascending integer coefficients.

    Computed by dividing x^N - 1 by the product of Phi_d over the proper
    divisors d of N.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    cached = _CYCLOTOMIC_CACHE.get(N)
    if cached is not None:
        return cached
    for m in range(1, N + 1):
        if N % m or m in _CYCLOTOMIC_CACHE:
            continue
        if m == 1:
            _CYCLOTOMIC_CACHE[1] = (-1, 1)
            continue
        prod = [1]
        for d in range(1, m):
            if m % d == 0:
                prod = _poly_mul(prod, _CYCLOTOMIC_CACHE[d])
        xm1 = [0] * (m + 1)
        xm1[0], xm1[m] = -1, 1
        q, rem = _poly_divmod_monic_int(xm1, prod)
        if rem:
            raise VerificationBug("cyclotomic division must be exact")
        _CYCLOTOMIC_CACHE[m] = tuple(q)
    return _CYCLOTOMIC_CACHE[N]


# --------------------------------------------------------------------------
# cyclotomic field elements

class _FieldData:
    """Per-conductor reduction tables, computed once."""

    def __init__(self, N: int):
        phi = cyclotomic_poly(N)
        self.N = N
        self.deg = deg = len(phi) - 1
        # power_table[p] = coefficients of zeta^p reduced mod Phi_N for
        # p = 0 .. N-1; Phi_N is monic, so they are integers
        top = [-c for c in phi[:-1]]  # zeta^deg
        table = []
        for p in range(N):
            if p < deg:
                vec = [0] * deg
                vec[p] = 1
            else:
                prev = table[p - 1]
                vec = [0] + list(prev[: deg - 1])
                lead = prev[deg - 1]
                if lead:
                    for i in range(deg):
                        vec[i] += lead * top[i]
            table.append(tuple(vec))
        self.power_table = tuple(table)
        # the Galois group of Q(zeta_N) without the identity: zeta -> zeta^k
        self.galois = tuple(k for k in range(2, N) if gcd(k, N) == 1)

    def mul_int(self, a, b):
        """Integer product a * b reduced mod Phi_N (both of length deg)."""
        return self.reduce_int(_poly_mul(a, b))

    def dot_int(self, xs, ys):
        """The sum of the products x * y of paired integer vectors: the
        convolutions are summed, then reduced mod Phi_N once."""
        acc = [0] * (2 * self.deg - 1)
        for x, y in zip(xs, ys):
            for k, c in enumerate(_poly_mul(x, y)):
                acc[k] += c
        return self.reduce_int(acc)

    def reduce_int(self, conv):
        """The integer polynomial conv, of degree below N + deg, reduced
        mod Phi_N in place."""
        deg, N, table = self.deg, self.N, self.power_table
        for p in range(deg, len(conv)):
            c = conv[p]
            if c:
                for i, ri in enumerate(table[p % N]):
                    if ri:
                        conv[i] += c * ri
        del conv[deg:]
        return conv

    def power_map(self, a, k):
        """sum_p a_p zeta^(k p) for integers a_p, in integers."""
        N, table = self.N, self.power_table
        out = [0] * self.deg
        for p, c in enumerate(a):
            if c:
                for i, ri in enumerate(table[(k * p) % N]):
                    if ri:
                        out[i] += c * ri
        return out

    def norm_cofactor(self, a):
        """(prod of sigma_k(a) over k != 1, Norm(a)) for the integer
        vector a: a times the first is the second (Cohen 4.3).  Raises
        VerificationBug when that product is not a nonzero rational."""
        rest = [1] + [0] * (self.deg - 1)
        for k in self.galois:
            rest = self.mul_int(rest, self.power_map(a, k))
        norm = self.mul_int(a, rest)
        if not norm[0] or any(norm[1:]):
            raise VerificationBug(
                f"norm of a nonzero element is not a nonzero rational: {norm}")
        return rest, norm[0]


_FIELD_CACHE: dict[int, _FieldData] = {}


def _field_data(N: int) -> _FieldData:
    data = _FIELD_CACHE.get(N)
    if data is None:
        data = _FIELD_CACHE[N] = _FieldData(N)
    return data


_ZERO = Fraction(0)


def _clear(coeffs):
    """(integer numerators, common denominator) of Fraction coefficients."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _clear_cyclotomic(values, deg):
    """(integer coefficient vectors, common denominator) of Cyclotomic
    values of degree deg."""
    nums, den = _clear([c for e in values for c in e.coeffs])
    return [nums[i:i + deg] for i in range(0, len(nums), deg)], den


def _clear_grid(points, N=None):
    """(the points scaled by s to integers, s), where s is the least
    common denominator of their coordinates; over Q(zeta_N) each
    coordinate becomes an integer coefficient vector."""
    if N is None:
        s = lcm(*(c.denominator for p in points for c in p))
        return [[c.numerator * (s // c.denominator) for c in p]
                for p in points], s
    vecs, s = _clear_cyclotomic([c for p in points for c in p],
                                _field_data(N).deg)
    vecs = iter(vecs)
    return [[next(vecs) for _ in p] for p in points], s


def _scalars(values, den, N) -> tuple:
    """The values over den as field scalars: integers over Q, integer
    coefficient vectors (or 0) over Q(zeta_N).  A negative den negates."""
    if N is None:
        return tuple(Fraction(x, den) for x in values)
    zero = Cyclotomic.from_rational(N, 0)
    return tuple(Cyclotomic._from_int(N, x, den) if x else zero
                 for x in values)


def integer_grid(points) -> list[list[int]]:
    """Rational coordinates scaled by their least common denominator.

    A uniform positive scaling keeps every affine relation, so weight
    systems, hull intersections and affine dependencies are decided on
    this grid unchanged.
    """
    return _clear_grid(points)[0]


class Cyclotomic:
    """An element of Q(zeta_N) in the reduced power basis.

    Equal field elements always have equal coefficient vectors, so ``==``
    and ``hash`` are structural.  Elements of different conductors never
    combine; rationals promote into any conductor.

    Products and inverses are computed in integers: the operands are
    cleared to integer numerators over one common denominator, convolved
    and reduced with the integer power table of the monic Phi_N, and the
    result's Fractions are built once; a rational factor, zero included,
    only scales the other factor's coefficients.  The inverse is the
    product of the other Galois conjugates divided by the norm.
    """

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs: Iterable[Union[Fraction, int]]):
        data = _field_data(N)
        vec = [_ZERO] * data.deg
        for p, c in enumerate(coeffs):
            if not c:
                continue
            c = Fraction(c)
            if p < data.deg:
                vec[p] += c
            else:
                # zeta^N = 1
                for i, ri in enumerate(data.power_table[p % N]):
                    if ri:
                        vec[i] += c * ri
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "coeffs", tuple(vec))

    @classmethod
    def _reduced(cls, N: int, coeffs: tuple) -> "Cyclotomic":
        # coeffs is already a reduced tuple of deg Fractions
        out = object.__new__(cls)
        object.__setattr__(out, "N", N)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    @classmethod
    def _from_int(cls, N: int, nums, den: int) -> "Cyclotomic":
        return cls._reduced(N, tuple(Fraction(n, den) if n else _ZERO
                                     for n in nums))

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic values are immutable")

    # -- constructors

    @classmethod
    def from_rational(cls, N: int, value) -> "Cyclotomic":
        return cls(N, [Fraction(value)])

    @classmethod
    def root_of_unity(cls, N: int, k: int = 1) -> "Cyclotomic":
        """zeta_N^k as an element of Q(zeta_N)."""
        data = _field_data(N)
        return cls(N, data.power_table[k % N])

    # -- coercion

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.N != self.N:
                raise FieldMismatch(
                    f"conductor mismatch: {self.N} vs {other.N}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.N, other)
        return None

    # -- arithmetic

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._reduced(
            self.N, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._reduced(self.N, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._reduced(
            self.N, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        # a rational operand (zero included) scales the other's
        # coefficients; only two irrational operands need the convolution
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_rational():
            return self._scaled(o.coeffs[0])
        if self.is_rational():
            return o._scaled(self.coeffs[0])
        a, da = _clear(self.coeffs)
        b, db = _clear(o.coeffs)
        return Cyclotomic._from_int(
            self.N, _field_data(self.N).mul_int(a, b), da * db)

    __rmul__ = __mul__

    def _scaled(self, q: Fraction) -> "Cyclotomic":
        if not q:
            return Cyclotomic._reduced(self.N, (_ZERO,) * len(self.coeffs))
        return Cyclotomic._reduced(
            self.N, tuple(q * c if c else _ZERO for c in self.coeffs))

    def inverse(self) -> "Cyclotomic":
        """1/a = (prod of sigma_k(a), k != 1) / Norm(a), in integers."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        a, den = _clear(self.coeffs)
        rest, norm = _field_data(self.N).norm_cofactor(a)
        # a = A/den and Norm(A) = A * rest, so 1/a = den * rest / Norm(A)
        return Cyclotomic._from_int(self.N, [den * x for x in rest], norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclotomic.from_rational(self.N, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, the field automorphism zeta -> zeta^(N-1)."""
        a, den = _clear(self.coeffs)
        return Cyclotomic._from_int(
            self.N, _field_data(self.N).power_map(a, self.N - 1), den)

    def embed(self, M: int) -> "Cyclotomic":
        """Image under Q(zeta_N) -> Q(zeta_M), requires N | M."""
        if M % self.N:
            raise FieldMismatch(f"{self.N} does not divide {M}")
        a, den = _clear(self.coeffs)
        return Cyclotomic._from_int(
            M, _field_data(M).power_map(a, M // self.N), den)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.N == other.N and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.N, self.coeffs))

    def __repr__(self):
        return f"Cyclotomic({self.N}, {list(self.coeffs)!r})"


# a PEP 604 union: typing.Union[...] is memoized, and its cache would keep
# every re-imported copy of this module alive
Scalar = Fraction | Cyclotomic


# --------------------------------------------------------------------------
# scalar-level operations

def conj(s: Scalar) -> Scalar:
    """Complex conjugation; rationals are fixed, a Fraction returned as
    it is."""
    if isinstance(s, Cyclotomic):
        return s.conjugate()
    return s if type(s) is Fraction else Fraction(s)


def hermitian_dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """Standard Hermitian inner product sum_i u_i * conj(v_i)."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    total = None
    for a, b in zip(u, v):
        term = a * conj(b)
        total = term if total is None else total + term
    if total is None:
        raise ValueError("empty vectors")
    return total


def _as_scalar(value, conductor):
    if isinstance(value, Cyclotomic):
        if conductor is None or value.N != conductor:
            raise FieldMismatch("mixed scalar fields in matrix")
        return value
    if conductor is not None:
        return Cyclotomic.from_rational(conductor, value)
    return value if type(value) is Fraction else Fraction(value)


def scalar_zero(conductor: int | None) -> Scalar:
    return Fraction(0) if conductor is None else Cyclotomic.from_rational(conductor, 0)


def scalar_one(conductor: int | None) -> Scalar:
    return Fraction(1) if conductor is None else Cyclotomic.from_rational(conductor, 1)


def scalar_is_zero(s: Scalar) -> bool:
    if isinstance(s, Cyclotomic):
        return s.is_zero()
    return s == 0


def scalar_to_json(s: Scalar):
    if isinstance(s, Cyclotomic):
        return {"N": s.N, "coeffs": [str(c) for c in s.coeffs]}
    return str(s if type(s) in (int, Fraction) else Fraction(s))


def _json_int(value, field: str) -> int:
    """The integer a JSON value holds, or PreconditionError naming the
    field; a fractional number or a boolean is no integer."""
    try:
        if type(value) in (int, str) or \
                isinstance(value, float) and value.is_integer():
            return int(value)
    except ValueError:
        pass
    raise PreconditionError(f"{field} must be an integer")


def scalar_from_json(obj, field: str = "coordinate") -> Scalar:
    """A scalar: a rational (a JSON number or a string such as "1/3")
    or {"N": N >= 1, "coeffs": [rationals]}; PreconditionError naming the
    field otherwise."""
    if isinstance(obj, dict):
        N, coeffs = obj.get("N"), obj.get("coeffs")
        if type(N) is int and N >= 1 and isinstance(coeffs, list):
            return Cyclotomic(N, [_rational_from_json(c, field)
                                  for c in coeffs])
        raise PreconditionError(f"malformed {field} {obj!r}")
    return _rational_from_json(obj, field)


def _rational_from_json(obj, field: str = "coordinate") -> Fraction:
    try:
        if type(obj) in (int, float, str, Fraction):
            return Fraction(obj)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise PreconditionError(f"{field} {obj!r} is not a rational number")


# --------------------------------------------------------------------------
# fraction-free integer elimination: rows divided by their content, or
# (``_rref_int``) by the previous pivot, as Bareiss 1968

def _reduce_row(row):
    g = 0
    for x in row:
        if x:
            g = gcd(g, abs(x))
            if g == 1:
                return row
    if g > 1:
        return [x // g for x in row]
    return row


def _eliminate_int(M, ncols):
    """Fraction-free forward elimination on the first ncols columns of M.

    Works in place by swapping and replacing rows (a row list is never
    mutated, so M may share rows with its caller).  Returns the pivots
    (row, col); the rows from len(pivots) on are zero in those columns.
    """
    m = len(M)
    pivots = []  # (row, col)
    r = 0
    for c in range(ncols):
        pr = None
        for rr in range(r, m):
            if M[rr][c]:
                pr = rr
                break
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        M[r] = _reduce_row(M[r])
        p = M[r][c]
        for rr in range(r + 1, m):
            f = M[rr][c]
            if f:
                M[rr] = _reduce_row(
                    [a * p - b * f for a, b in zip(M[rr], M[r])])
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    return pivots


def _back_eliminate(M, pivots) -> int:
    """Finish the reduced echelon form of M, fraction-free, in place.

    M must be in echelon form with these pivots (as _eliminate_int leaves
    it).  Each pivot column is cleared above its pivot row, and each
    pivot row is then scaled so that its pivot is ``lead``, the lcm of
    the pivots, which is returned (lead > 0).  Row k is then lead times
    row k of the reduced row echelon form, which is unique, so every
    value read from it is too.
    """
    for pr, pc in reversed(pivots):
        p = M[pr][pc]
        for q in range(pr):
            f = M[q][pc]
            if f:
                M[q] = _reduce_row([a * p - b * f
                                    for a, b in zip(M[q], M[pr])])
    lead = lcm(*(M[pr][pc] for pr, pc in pivots))
    for pr, pc in pivots:
        s = lead // M[pr][pc]
        if s != 1:
            M[pr] = [x * s for x in M[pr]]
    return lead


def _rref_int(M, ncols):
    """The reduced echelon form of M in one fraction-free pass, in place.

    Gauss-Jordan elimination with Bareiss's exact division, on the first
    ncols columns, with ``_eliminate_int``'s pivot rule (leftmost column,
    then first nonzero row).  For a pivot p at (r, c) every other row R
    becomes (p R - R[c] P) // prev, where P is row r and prev is the
    previous pivot (1 at first); a row with R[c] = 0 becomes p R // prev.
    Sylvester's identity makes every division exact and every entry a
    minor of M (Bareiss 1968), so no row outgrows its minors and no gcd
    is taken on the way.  At the end every pivot equals the last one, D,
    and the pivot rows are divided by +-gcd(D, all their entries), so that
    lead > 0.  Returns (pivots, lead): the form ``_back_eliminate``
    leaves, each pivot row lead times its row of the reduced row echelon
    form, and the rows from len(pivots) on zero in the first ncols
    columns.
    """
    m = len(M)
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((rr for rr in range(r, m) if M[rr][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        P = M[r]
        p = P[c]
        for rr, R in enumerate(M):
            if rr == r:
                continue
            f = R[c]
            if f:
                M[rr] = [(p * a - f * b) // prev for a, b in zip(R, P)]
            elif p != prev:
                M[rr] = [p * a // prev for a in R]
        prev = p
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    g = prev
    for pr, _ in pivots:
        g = gcd(g, *M[pr])
        if g == 1:
            break
    if prev < 0:
        g = -g
    if g != 1:
        for pr, _ in pivots:
            M[pr] = [x // g for x in M[pr]]
    return pivots, prev // g


def _det_int(M):
    """The determinant of the square integer matrix M, whose rows are
    read, not changed.  Up to 3 x 3 it is the cofactor expansion; larger
    matrices take forward elimination with Bareiss's exact division, each
    step dropping the pivot row and column, so the last pivot is the
    determinant up to the sign of the row moves."""
    n = len(M)
    if n < 4:
        if n < 2:
            return M[0][0] if n else 1
        if n == 2:
            (a, b), (c, d) = M
            return a * d - b * c
        (a, b, c), (d, e, f), (g, h, i) = M
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    sign, prev = 1, 1
    while M:
        pr = next((r for r, R in enumerate(M) if R[0]), None)
        if pr is None:
            return 0
        P, p = M[pr], M[pr][0]
        sign = -sign if pr & 1 else sign
        M = [[(p * a - R[0] * b) // prev for a, b in zip(R[1:], P[1:])]
             for R in M[:pr] + M[pr + 1:]]
        prev = p
    return sign * prev


def _kernel_int(M, pivots, lead, ncols):
    """The integer kernel of the first ncols columns of M, as
    _back_eliminate leaves it with this lead: one vector per free column
    f, lead at f, 0 at the other free columns and -M[k][f] at the pivot
    column of row k.  So the vectors are in reduced form at the free
    columns with the one common lead, which ``feaslp.affine_hull`` takes
    as its flat's rows as they are."""
    taken = {pc for _, pc in pivots}
    basis = []
    for f in (c for c in range(ncols) if c not in taken):
        v = [0] * ncols
        v[f] = lead
        for pr, pc in pivots:
            v[pc] = -M[pr][f]
        basis.append(v)
    return basis


# --------------------------------------------------------------------------
# integer Gauss-Jordan elimination over Z[zeta_N]

def _reduce_vec_row(row, den):
    """(row, den) divided by the gcd of den and every integer of the
    coefficient vectors in row."""
    g = den
    for v in row:
        for x in v:
            if x:
                g = gcd(g, x)
                if g == 1:
                    return row, den
    if g == 1:
        return row, den
    return [[x // g for x in v] for v in row], den // g


def _pivot_cost(v):
    """A rational entry before any other, then the fewest coefficient
    bits: the norm cofactor of a rational pivot is rational, and fewer
    bits keep the cleared rows small."""
    return any(v[1:]), sum(x.bit_length() for x in v)


def _eliminate_cyclotomic(data, M, dens, ncols, back):
    """Gauss-Jordan elimination on the first ncols columns, in integers.

    Row k is the list of integer coefficient vectors M[k] over the
    denominator dens[k]; both lists are updated in place.  A pivot
    row R with pivot p becomes R times p's norm cofactor over Norm(p),
    so its pivot is one; every other row R' over d' with f in the pivot
    column becomes d R' - f P over d' d, where P over d is the new pivot
    row, so its pivot column is cleared.  Each row is then reduced by
    ``_reduce_vec_row``, and so holds exactly the values that field
    elimination gives it.  Rows above a pivot are cleared only when back
    is true.  The pivot row is the cheapest one, by ``_pivot_cost``;
    the pivot columns and the reduced form do not depend on that choice.
    Returns the pivots (row, col).
    """
    m = len(M)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = min((rr for rr in range(r, m) if any(M[rr][c])),
                 key=lambda rr: _pivot_cost(M[rr][c]), default=None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        dens[r], dens[pr] = dens[pr], dens[r]
        cof, norm = data.norm_cofactor(M[r][c])
        M[r], dens[r] = P, d = _reduce_vec_row(
            [data.mul_int(v, cof) for v in M[r]], norm)
        for rr in range(0 if back else r + 1, m):
            f = M[rr][c]
            if rr != r and any(f):
                M[rr], dens[rr] = _reduce_vec_row(
                    [[d * a - b for a, b in zip(v, data.mul_int(f, u))]
                     if any(u) else [d * a for a in v]
                     for v, u in zip(M[rr], P)], dens[rr] * d)
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    return pivots


# --------------------------------------------------------------------------
# exact matrices

class ExactMatrix:
    """Dense rectangular matrix over one scalar field.

    Entries are all Fraction or all Cyclotomic with a single conductor.
    Elimination is exact with a fixed pivot rule (leftmost column; first
    nonzero row over Q, cheapest nonzero row by ``_pivot_cost`` over
    Q(zeta_N)), which makes every derived basis deterministic.  Rational
    matrices reduce fraction-free in integers, cyclotomic ones by
    Gauss-Jordan elimination on integer rows; both read the reduced row
    echelon form, which is unique, times one common lead.
    """

    __slots__ = ("rows", "cols", "entries", "conductor")

    def __init__(self, entries: Sequence[Sequence[Scalar]], conductor: int | None = None):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if conductor is None:
            for row in entries:
                for e in row:
                    if isinstance(e, Cyclotomic):
                        conductor = e.N
                        break
                if conductor is not None:
                    break
        grid = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            grid.append(tuple(_as_scalar(e, conductor) for e in row))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(grid))
        object.__setattr__(self, "conductor", conductor)

    def __setattr__(self, *a):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Scalar]], conductor=None):
        rows = len(columns[0]) if columns else 0
        return cls([[columns[j][i] for j in range(len(columns))]
                    for i in range(rows)], conductor)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([[self.entries[i][j] for i in range(self.rows)]
                            for j in range(self.cols)], self.conductor)

    def mul_vec(self, v: Sequence[Scalar]) -> tuple:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        zero = scalar_zero(self.conductor)
        out = []
        for row in self.entries:
            acc = zero
            for a, b in zip(row, v):
                acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def _rref(self):
        """Reduced row echelon form: (rows, pivots as (row, col), lead).

        Every row is cleared to integers over its own common denominator,
        and the form is rows / lead.  Rational rows are reduced in one
        Bareiss pass, ``_rref_int``.  Cyclotomic rows, integer coefficient
        vectors, are reduced by ``_eliminate_cyclotomic`` and each pivot
        row is then scaled to lead, the lcm of their denominators.
        """
        if self.conductor is None:
            M = self._int_rows()
            return (M, *_rref_int(M, self.cols))
        M, dens, pivots = self._cyclotomic_rows(True)
        lead = lcm(*(dens[pr] for pr, _ in pivots))
        for pr, _ in pivots:
            s = lead // dens[pr]
            if s != 1:
                M[pr] = [[x * s for x in v] for v in M[pr]]
        return M, pivots, lead

    def _int_rows(self):
        """Each rational row as integers over its own common denominator."""
        return [_clear(row)[0] for row in self.entries]

    def _cyclotomic_rows(self, back):
        """(rows, denominators, pivots) of ``_eliminate_cyclotomic``, each
        row cleared to integer coefficient vectors over one denominator."""
        data = _field_data(self.conductor)
        cleared = [_clear_cyclotomic(row, data.deg) for row in self.entries]
        M, dens = [v for v, _ in cleared], [d for _, d in cleared]
        return M, dens, _eliminate_cyclotomic(data, M, dens, self.cols, back)

    def pivot_columns(self) -> list[int]:
        """The first linearly independent columns, chosen greedily.

        A column is a pivot column of the echelon form exactly when it is
        independent of the columns before it, so one elimination gives
        the greedy choice, and the forward pass alone suffices.
        """
        if self.conductor is None:
            return [c for _, c in _eliminate_int(self._int_rows(), self.cols)]
        return [c for _, c in self._cyclotomic_rows(False)[2]]

    def rank(self) -> int:
        return len(self.pivot_columns())

    def kernel_basis(self) -> list[tuple]:
        """Deterministic basis of the right kernel, ``_kernel_int`` of the
        reduced form; empty when injective."""
        M, pivots, lead = self._rref()
        return [_scalars(v, lead, self.conductor)
                for v in self._int_kernel(M, pivots, lead)]

    def _int_kernel(self, M, pivots, lead) -> list[list]:
        """``kernel_basis`` times lead, read off this matrix's ``_rref``:
        integers over Q, integer coefficient vectors over Q(zeta_N)."""
        if self.conductor is None:
            return _kernel_int(M, pivots, lead, self.cols)
        # coefficient t of every entry, read on its own: lead is the
        # vector (lead, 0, ..., 0)
        layers = [_kernel_int([[v[t] for v in row] for row in M], pivots,
                              lead if t == 0 else 0, self.cols)
                  for t in range(_field_data(self.conductor).deg)]
        return [[list(x) for x in zip(*vecs)] for vecs in zip(*layers)]

    def solve(self, rhs: Sequence[Scalar]):
        """One exact solution of M x = rhs (free variables zero), or None."""
        if len(rhs) != self.rows:
            raise ValueError("dimension mismatch")
        aug = ExactMatrix([list(row) + [r] for row, r in zip(self.entries, rhs)],
                          self.conductor)
        M, pivots, lead = aug._rref()
        if any(pc == self.cols for _, pc in pivots):
            return None  # inconsistent
        x = [0] * self.cols
        for pr, pc in pivots:
            x[pc] = M[pr][self.cols]
        return _scalars(x, lead, self.conductor)

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix)
                and self.entries == other.entries)

    def __repr__(self):
        return f"ExactMatrix({[list(r) for r in self.entries]!r})"

