"""The Gale transform, its inverse, and the dependence/functional bridge.

A sequence of n affinely spanning points in K^d is carried to n vectors in
K^(n-d-1) (the columns of the conjugated kernel-basis matrix of the lifted
point matrix).  Affine dependencies among the points correspond exactly to
linear functionals on the dual vectors, which is the bridge every fan
construction in this package rests on.

The inverse Gale transform is one path for both fields, on integers
(integer coefficient vectors over Q(zeta_N)) from the lift to the
returned functional.  The augmented point is the negated column sum of
the lifted points' integer grid.  The primal is read off the kernel of
B, whose columns are the dual points, as integer vectors over one lead,
conjugated in integers; the same integers are the primal's grid.  The
pair is checked once, by its own test that every conjugated coordinate
row of the dual, read off the dual's cleared and conjugated grid, is an
affine dependence of the primal.  Every functional is read by one
reader, ``_functional_int``, from a dependence cleared to integers and
checked on every dual point in integers; Fractions and Cyclotomics are
built once, only for the points a ``PointConfig`` holds and the
functionals returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Sequence

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
    Scalar,
    _as_scalar,
    _clear,
    _clear_cyclotomic,
    _clear_grid,
    _eliminate_cyclotomic,
    _field_data,
    _json_int,
    _kernel_int,
    _scalars,
    conj,
    hermitian_dot,
    scalar_from_json,
    scalar_is_zero,
    scalar_one,
    scalar_to_json,
    scalar_zero,
)

__all__ = [
    "GaleDualPair",
    "PointConfig",
    "dependence_to_functional",
    "functional_to_dependence",
    "gale_pair_from_dual",
    "gale_transform",
    "inverse_gale",
    "lift_augment",
    "linear_change_of_basis",
]


class PointConfig:
    """A labeled sequence of points over one exact field.

    ``conductor`` is None for rational coordinates, or the N of Q(zeta_N).
    ``coloring`` is an optional list assigning each point a class in
    0..m-1.  The affine-spanning check is cached once verified.
    """

    __slots__ = ("dim", "points", "conductor", "coloring", "_spanning")

    def __init__(self, dim: int, points: Sequence[Sequence[Scalar]],
                 conductor: Optional[int] = None,
                 coloring: Optional[Sequence[int]] = None):
        if dim < 0:
            raise PreconditionError("dim must be nonnegative")
        pts = []
        for i, p in enumerate(points):
            if len(p) != dim:
                raise PreconditionError(
                    f"points: point {i} has {len(p)} coordinates, dim {dim}")
            row = []
            for c in p:
                if isinstance(c, Cyclotomic):
                    if conductor is None:
                        conductor = c.N
                    elif c.N != conductor:
                        raise FieldMismatch("mixed conductors in one config")
                    row.append(c)
                else:
                    row.append(c if type(c) is Fraction else Fraction(c))
            pts.append(tuple(row))
        if conductor is not None:
            pts = [tuple(Cyclotomic.from_rational(conductor, c)
                         if not isinstance(c, Cyclotomic) else c for c in p)
                   for p in pts]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "conductor", conductor)
        if coloring is not None:
            coloring = tuple(int(c) for c in coloring)
            if len(coloring) != len(pts) or min(coloring, default=0) < 0:
                raise PreconditionError(
                    "coloring must give each point a class >= 0")
        object.__setattr__(self, "coloring", coloring)
        object.__setattr__(self, "_spanning", None)

    def __setattr__(self, name, value):
        if name == "_spanning":
            object.__setattr__(self, name, value)
            return
        raise AttributeError("PointConfig is immutable")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def num_classes(self) -> int:
        if self.coloring is None:
            return 1
        return max(self.coloring) + 1

    def class_indices(self, k: int) -> tuple[int, ...]:
        if self.coloring is None:
            return tuple(range(self.n)) if k == 0 else ()
        return tuple(i for i, c in enumerate(self.coloring) if c == k)

    def class_sizes(self) -> list[int]:
        return [len(self.class_indices(k)) for k in range(self.num_classes)]

    def lifted_matrix(self) -> ExactMatrix:
        """(dim+1) x n matrix whose columns are (a_j, 1)."""
        rows = [[self.points[j][i] for j in range(self.n)]
                for i in range(self.dim)]
        rows.append([scalar_one(self.conductor)] * self.n)
        return ExactMatrix(rows, self.conductor)

    def affinely_spanning(self) -> bool:
        if self._spanning is None:
            self._spanning = (self.n >= self.dim + 1
                              and self.lifted_matrix().rank() == self.dim + 1)
        return self._spanning

    def linearly_spanning(self) -> bool:
        return ExactMatrix.from_columns(list(self.points),
                                        self.conductor).rank() == self.dim

    def with_coloring(self, coloring) -> "PointConfig":
        return PointConfig(self.dim, self.points, self.conductor, coloring)

    def to_conductor(self, N: int) -> "PointConfig":
        """Embed a config into Q(zeta_N); rational configs promote freely.

        An embedding of fields keeps every rank, so a verified (or
        refuted) affine span carries over.
        """
        if self.conductor == N:
            return self
        pts = self.points if self.conductor is None else \
            [[c.embed(N) for c in p] for p in self.points]
        out = PointConfig(self.dim, pts, N, self.coloring)
        out._spanning = self._spanning
        return out

    def to_json(self) -> dict:
        field = "rational" if self.conductor is None else \
            {"cyclotomic": self.conductor}
        out = {
            "field": field,
            "dim": self.dim,
            "points": [[scalar_to_json(c) for c in p] for p in self.points],
        }
        if self.coloring is not None:
            out["coloring"] = list(self.coloring)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "PointConfig":
        if not isinstance(obj, dict):
            raise PreconditionError("a point configuration is a JSON object")
        points = obj.get("points")
        if not isinstance(points, list) or \
                not all(isinstance(p, list) for p in points):
            raise PreconditionError("points must be a list of lists")
        field = obj.get("field", "rational")
        conductor = None if field == "rational" else _json_int(
            field.get("cyclotomic") if isinstance(field, dict) else None,
            "field.cyclotomic")
        if conductor is not None and conductor < 1:
            raise PreconditionError("field.cyclotomic must be positive")
        pts = [[scalar_from_json(c) for c in p] for p in points]
        if any(isinstance(c, Cyclotomic) and c.N != conductor
               for p in pts for c in p):
            raise PreconditionError(
                "points: a coordinate's conductor differs from field")
        coloring = obj.get("coloring")
        if coloring is not None:
            if not isinstance(coloring, list):
                raise PreconditionError("coloring must be a list of integers")
            coloring = [_json_int(c, "coloring") for c in coloring]
        return cls(_json_int(obj.get("dim"), "dim"), pts, conductor, coloring)

    def __eq__(self, other):
        return (isinstance(other, PointConfig)
                and self.dim == other.dim
                and self.conductor == other.conductor
                and self.points == other.points
                and self.coloring == other.coloring)

    def __repr__(self):
        f = "Q" if self.conductor is None else f"Q(zeta_{self.conductor})"
        return f"PointConfig(n={self.n}, dim={self.dim}, field={f})"


@dataclass(frozen=True)
class GaleDualPair:
    """A primal configuration together with its Gale dual.

    The dual points are the columns of the conjugate of B, the matrix
    whose rows are the chosen kernel basis of the lifted primal matrix.
    So row i of B is conj(g_j[i]) over the dual points g_j, and the pair
    reads B off its dual; a fixed dual keeps the dependence/functional
    bridge basis-stable.
    """

    primal: PointConfig
    dual: PointConfig

    @cached_property
    def _bridge(self):
        """``_dual_kernel``'s bridge; ``gale_pair_from_dual`` seeds it."""
        return _dual_kernel(self.dual)[2]

    @cached_property
    def _primal_grid(self) -> list[list]:
        """The primal scaled to one integer grid: integer points over Q,
        points of integer coefficient vectors over Q(zeta_N)."""
        primal = self.primal
        return _clear_grid(primal.points, primal.conductor)[0]

    @cached_property
    def _dual_grid(self):
        """(G, s): the dual on its integer grid G = s g;
        ``gale_pair_from_dual`` seeds it."""
        return _clear_grid(self.dual.points, self.dual.conductor)

    @cached_property
    def _conj_dual_grid(self):
        """(conj(G), s): ``_dual_grid`` conjugated (over Q conjugation is
        the identity)."""
        G, s = self._dual_grid
        return _conj_int(G, self.dual.conductor), s

    def validate(self) -> None:
        """Every row of B, a conjugated coordinate row of the dual, is an
        affine dependence of the primal, decided by ``_is_grid_dependence``
        on the rows of ``_conj_dual_grid``; NotADependence otherwise, and
        for a primal and dual over different fields or of different
        sizes."""
        if (self.dual.conductor != self.primal.conductor
                or self.dual.n != self.primal.n):
            raise NotADependence("primal and dual differ in field or size")
        for row in zip(*self._conj_dual_grid[0]):
            if not _is_grid_dependence(self, row):
                raise NotADependence("basis row is not in ker A")


def _conj_int(rows, N):
    """The conjugates of the entries of rows, integers over Q (which
    conjugation fixes) or integer coefficient vectors over Q(zeta_N),
    mapped by zeta -> zeta^(N-1)."""
    if N is None:
        return rows
    power_map = _field_data(N).power_map
    return [[power_map(x, N - 1) for x in row] for row in rows]


def _column_sums(G, N):
    """The sum of the points of the integer grid G: an integer per
    coordinate over Q, an integer coefficient vector over Q(zeta_N)."""
    if N is None:
        return [sum(col) for col in zip(*G)]
    return [[sum(c) for c in zip(*col)] for col in zip(*G)]


def _is_dependence_int(P, v) -> bool:
    """Whether the integer weights v sum to zero and weight the integer
    points P to zero: an affine dependence, possibly zero."""
    if sum(v):
        return False
    acc = [0] * len(P[0])
    for x, p in zip(v, P):
        if x:
            acc = [a + x * c for a, c in zip(acc, p)]
    return not any(acc)


def _is_dependence_cyclotomic(data, P, v) -> bool:
    """``_is_dependence_int`` in Z[zeta_N]: v and the coordinates of the
    points P are integer coefficient vectors."""
    return not any(map(sum, zip(*v))) and not any(
        any(data.dot_int(v, [p[i] for p in P])) for i in range(len(P[0])))


def _is_grid_dependence(pair: GaleDualPair, v) -> bool:
    """Whether the weights v, cleared to integers (integer coefficient
    vectors over Q(zeta_N)), are an affine dependence of the primal,
    decided on its integer grid."""
    N = pair.primal.conductor
    if N is None:
        return _is_dependence_int(pair._primal_grid, v)
    return _is_dependence_cyclotomic(_field_data(N), pair._primal_grid, v)


def gale_transform(primal: PointConfig) -> GaleDualPair:
    """Gale transform of an affinely spanning configuration.

    The dual points linearly span K^(n-d-1) and sum to zero exactly.
    """
    if not primal.affinely_spanning():
        raise NotAffinelySpanning(
            f"{primal.n} points do not affinely span dimension {primal.dim}")
    kb = primal.lifted_matrix().kernel_basis()  # n - d - 1 vectors
    dual_pts = [[conj(v[j]) for v in kb] for j in range(primal.n)]
    dual = PointConfig(len(kb), dual_pts, primal.conductor, primal.coloring)
    return GaleDualPair(primal, dual)


def inverse_gale(dual: PointConfig) -> PointConfig:
    """The primal of ``gale_pair_from_dual(dual)``, checked by its pair."""
    return gale_pair_from_dual(dual).primal


def gale_pair_from_dual(dual: PointConfig) -> GaleDualPair:
    """Inverse Gale transform packaged as a checked pair.

    The kernel of the matrix with columns g_i has the basis read off its
    reduced echelon form: one vector per free column f, with 1 at f, 0
    at the other free columns and minus the reduced row entries of f at
    the pivot columns; ``_dual_kernel`` returns it times its lead, in
    integers.  It holds d + 1 vectors, d = n - dim - 1, exactly
    when the g_i span K^dim.  The points sum to zero, so the all-ones
    vector is in the kernel, with coefficient 1 on every basis vector;
    exchanging it for the first one keeps a basis, and the primal's
    coordinates are the other d vectors, conjugated.  On the kernel's
    d + 1 free columns the primal's coordinate rows are then unit vectors
    and its lifted row is all ones, so the primal affinely spans K^d by
    construction.  Each primal coordinate is built once from those
    integers, conjugated in integers over Q(zeta_N), and the same
    integers seed the pair's primal grid; the zero-sum test and the
    pair's dual grid share one clearing of the dual.

    The pair is checked once by ``GaleDualPair.validate``: the dual
    points are exactly the given ones and every conjugated coordinate
    row of the dual is an affine dependence of the primal.  A dual that
    does not sum to zero raises NonzeroSum, one that does not span
    raises NotSpanning; a failed check of the pair built here is a bug.
    """
    if dual.dim < 1:
        raise PreconditionError("a Gale dual needs dim >= 1")
    N = dual.conductor
    G, s = _clear_grid(dual.points, N)
    sums = _column_sums(G, N)
    if any(sums) if N is None else any(map(any, sums)):
        raise NonzeroSum("dual points must sum to zero")
    n, m = dual.n, dual.dim
    d = n - m - 1
    K, lead, bridge = _dual_kernel(dual)
    if len(K) != d + 1:
        raise NotSpanning(f"dual points do not linearly span K^{m}")
    rows = _conj_int(K[1:], N)
    P = [[v[j] for v in rows] for j in range(n)]  # the primal times lead
    pair = GaleDualPair(PointConfig(d, [_scalars(p, lead, N) for p in P], N,
                                    dual.coloring), dual)
    # the cached properties' values
    pair.__dict__.update(_bridge=bridge, _primal_grid=P, _dual_grid=(G, s))
    try:
        pair.validate()
    except NotADependence as exc:
        raise VerificationBug(
            f"inverse Gale transform fails its own check: {exc}") from exc
    return pair


def _dual_kernel(dual: PointConfig):
    """(K, lead, bridge) of B, the matrix whose columns are the g_i: K is
    B's kernel basis times lead, integers over Q and integer coefficient
    vectors over Q(zeta_N).

    Over Q(zeta_N) ``ExactMatrix._rref`` reduces B, its rows cleared to
    integer coefficient vectors, by Gauss-Jordan elimination in
    Z[zeta_N]; the kernel is read off that form and the bridge is B's
    pivot columns S, the first g_i that span.  Over Q ``_rref`` reduces
    [B | I], row k cleared by B's row denominator c_k: the first n
    columns give B's kernel and, when the g_i span, the identity block of
    the pivot rows is F with F B_S = lead I on the pivot columns S.  The
    bridge is (S, F^T, lead).
    """
    B = [list(row) for row in zip(*dual.points)]
    if dual.conductor is not None:
        mat = ExactMatrix(B, dual.conductor)
        M, pivots, lead = mat._rref()
        return (mat._int_kernel(M, pivots, lead), lead,
                [pc for _, pc in pivots])
    n, m = dual.n, dual.dim
    aug = ExactMatrix([row + [int(j == k) for j in range(m)]
                       for k, row in enumerate(B)])
    M, pivots, lead = aug._rref()
    pivots = [(pr, pc) for pr, pc in pivots if pc < n]
    return _kernel_int(M, pivots, lead, n), lead, (
        [pc for _, pc in pivots], list(zip(*(row[n:] for row in M))), lead)


def lift_augment(config: PointConfig) -> PointConfig:
    """Lift points to height one and append the negated sum.

    The output linearly spans K^(D+1) and sums to zero, hence is
    inverse-Gale eligible with d = n - D - 1.  The sum is taken on the
    lifted points' integer grid, and each of its coordinates is built
    once as a scalar.
    """
    if not config.affinely_spanning():
        raise NotAffinelySpanning("input must affinely span its space")
    N = config.conductor
    one = scalar_one(N)
    lifted = [tuple(p) + (one,) for p in config.points]
    G, s = _clear_grid(lifted, N)
    # the sums over -s are the negated sum
    lifted.append(_scalars(_column_sums(G, N), -s, N))
    # the augmented point carries no color; callers exclude it by index
    return PointConfig(config.dim + 1, lifted, N, None)


def _is_dependence(pair: GaleDualPair, lam: Sequence[Scalar]) -> bool:
    """Whether lambda sums to zero and weights the primal to zero: an
    affine dependence, possibly zero.  It is decided on the primal's
    integer grid, lambda cleared to integers: over Q(zeta_N) to integer
    coefficient vectors."""
    primal = pair.primal
    if len(lam) != primal.n:
        return False
    N = primal.conductor
    if N is not None:
        return _is_grid_dependence(pair, _clear_cyclotomic(
            [_as_scalar(x, N) for x in lam], _field_data(N).deg)[0])
    if not any(isinstance(x, Cyclotomic) for x in lam):
        return _is_grid_dependence(pair, _clear(lam)[0])
    zero = scalar_zero(primal.conductor)
    return scalar_is_zero(sum(lam, zero)) and all(
        scalar_is_zero(sum((x * p[i] for x, p in zip(lam, primal.points)),
                           zero)) for i in range(primal.dim))


def dependence_to_functional(pair: GaleDualPair, lam: Sequence[Scalar]):
    """The unique alpha with <alpha, g_i> = lambda_i for every i.

    lambda must be a nonzero affine dependence of the primal (checked
    exactly); it is cleared to integers, lambda = Lam / e, and alpha is
    read by ``_functional_int``.  A rational pair takes a
    rational-valued Cyclotomic entry as its value and raises
    PreconditionError for any other.
    """
    N = pair.primal.conductor
    if N is not None:
        lam = [x if isinstance(x, Cyclotomic)
               else Cyclotomic.from_rational(N, x) for x in lam]
    elif all(not isinstance(x, Cyclotomic) or x.is_rational() for x in lam):
        lam = [x.coeffs[0] if isinstance(x, Cyclotomic) else Fraction(x)
               for x in lam]
    else:
        raise PreconditionError("a rational pair needs a rational lambda")
    if not any(lam) or not _is_dependence(pair, lam):
        raise NotADependence("lambda is not a nonzero affine dependence")
    (Lam,), e = _clear_grid([lam], N)
    return _scalars(*_functional_int(pair, Lam, e), N)


def _functional_int(pair: GaleDualPair, Lam, e):
    """(P, a): the functional alpha = P / a, a > 0, of the dependence
    lambda = Lam / e, Lam integers (integer coefficient vectors over
    Q(zeta_N)); the caller has tested lambda.  It is solved through the
    kernel basis, lambda = B^T alpha, where row i of B^T is conj(g_i), on
    the pair's bridge and the dual's grid G = s g.  Over Q it is read off
    the bridge as P = F^T Lam_S, a = lead e.  Over Q(zeta_N)
    ``_eliminate_cyclotomic`` solves the square system conj(G_i) alpha' =
    Lam_i on the pivot columns S, whose left block is the dual's own
    conjugated grid, and alpha = s alpha' / e, over a = e L, L the lcm of
    the solved rows' denominators.  Either way P is checked against every
    g_i in integers, as <P, conj(G_i)> = (a / e) s Lam_i: a / e is lead
    over Q and L over Q(zeta_N).
    """
    G, s = pair._conj_dual_grid
    N = pair.primal.conductor
    if N is None:
        S, Ft, lead = pair._bridge
        P = [sum(f * Lam[i] for f, i in zip(col, S)) for col in Ft]
        for Gi, li in zip(G, Lam):
            if sum(a * b for a, b in zip(P, Gi)) != lead * s * li:
                raise VerificationBug("functional does not reproduce lambda")
        return P, lead * e
    data = _field_data(N)
    m = pair.dual.dim
    M = [G[i] + [Lam[i]] for i in pair._bridge]
    dens = [1] * len(M)
    if len(_eliminate_cyclotomic(data, M, dens, m, True)) != m:
        raise VerificationBug("the dual's pivot columns do not span")
    # Gauss-Jordan leaves row k as alpha'_k = M[k][m] / dens[k]
    L = lcm(*dens)
    P = [[s * (L // d) * x for x in row[m]] for row, d in zip(M, dens)]
    for Gi, li in zip(G, Lam):
        if data.dot_int(P, Gi) != [L * s * x for x in li]:
            raise VerificationBug("functional does not reproduce lambda")
    return P, L * e


def functional_to_dependence(pair: GaleDualPair, alpha: Sequence[Scalar]):
    """lambda_i = <alpha, g_i>; exact dependence of the primal by duality."""
    if all(scalar_is_zero(a) if isinstance(a, Cyclotomic) else Fraction(a) == 0
           for a in alpha):
        raise ZeroFunctional("alpha must be nonzero")
    lam = tuple(hermitian_dot(alpha, g) for g in pair.dual.points)
    if not any(lam) or not _is_dependence(pair, lam):
        raise VerificationBug("bridge postcondition failed (bug)")
    return lam


def linear_change_of_basis(src_points, dst_points):
    """Invertible T with T src_i = dst_i for all i, or None.

    Used to verify that two duals differ only by a linear isomorphism.
    """
    if len(src_points) != len(dst_points):
        return None
    m = len(src_points[0])
    if any(len(p) != m for p in dst_points):
        return None
    S = ExactMatrix.from_columns(list(src_points))
    # the first spanning subset of source columns, deterministically
    chosen = S.pivot_columns()
    if len(chosen) < m:
        return None
    Ssub = ExactMatrix.from_columns([src_points[k] for k in chosen], S.conductor)
    # solve T * Ssub = Dsub column by column via Ssub^T T^T = ...
    Tt_cols = []
    for i in range(m):
        rhs = [dst_points[k][i] for k in chosen]
        sol = Ssub.transpose().solve(rhs)
        if sol is None:
            return None
        Tt_cols.append(sol)
    T = ExactMatrix.from_columns(Tt_cols, S.conductor).transpose()
    for s, t in zip(src_points, dst_points):
        if T.mul_vec(s) != tuple(t):
            return None
    if T.rank() < m:
        return None
    return T
