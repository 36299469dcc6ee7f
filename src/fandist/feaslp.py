"""Exact rational feasibility for proper Tverberg weight systems.

Deciding whether disjoint parts I_1..I_r admit strictly positive weights
t_i with equal part sums and equal weighted centroids is a linear program:
maximize the slack eps subject to t_i >= eps and the equality system.  The
feasible region is compact (part sums are pinned to one), so the maximum
is attained and the decision is the exact sign of the optimum.

Systems are assembled on an integer grid and classified by fraction-free
elimination in :mod:`fandist.exactnum`, whose one reduced echelon form
over a common pivot also gives the unique solutions, nullity-one lines,
hull flats and barycentric maps here.  A unique solution is checked for
positivity.  A system with one free weight (nullity one) is decided in
closed form in integers: each weight is a line in the free weight, and
the optimum is the least constant line or crossing of a rising with a
falling line.
Only systems of nullity two or more, and those whose optimal weights form
an interval, reach the two-phase Fraction simplex.  Cyclotomic
configurations are realified first: each coordinate is replaced by its
coefficient vector over the power basis, a Q-linear injection that
preserves and reflects equality of Q-linear combinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from fandist.errors import PreconditionError, VerificationBug
from fandist.exactnum import (
    _back_eliminate,
    _eliminate_int,
    _field_data,
    _kernel_int,
    integer_grid,
)
from fandist.galedual import PointConfig

__all__ = [
    "ExactWeightSolver",
    "ProperWeightProblem",
    "Flat",
    "WeightWitness",
    "affine_hull",
    "barycentric_map",
    "integer_grid",
    "proper_weights",
    "realify",
]

SIMPLEX_ITERATION_CAP = 200_000


def realify(config: PointConfig) -> PointConfig:
    """Replace each cyclotomic coordinate by its basis coefficient vector.

    Proper-weight feasibility over the realified points coincides with
    equality of the original complex combinations.
    """
    if config.conductor is None:
        raise PreconditionError("realify expects a cyclotomic configuration")
    deg = _field_data(config.conductor).deg
    pts = []
    for p in config.points:
        row: list[Fraction] = []
        for c in p:
            row.extend(c.coeffs)
        pts.append(row)
    return PointConfig(config.dim * deg, pts, None, config.coloring)


def realify_if_needed(config: PointConfig) -> PointConfig:
    return config if config.conductor is None else realify(config)


def check_parts(parts, n: int) -> tuple[tuple[int, ...], ...]:
    """The parts as sorted index tuples; each must be nonempty, and every
    index must lie in range(n) and occur once in all the parts."""
    seen, norm = set(), []
    for part in parts:
        t = tuple(sorted(int(i) for i in part))
        if not t:
            raise PreconditionError("parts must be nonempty")
        for i in t:
            if i in seen:
                raise PreconditionError(f"index {i} given twice")
            if not 0 <= i < n:
                raise PreconditionError(f"index {i} out of range({n})")
            seen.add(i)
        norm.append(t)
    return tuple(norm)


class ProperWeightProblem:
    """Rational points plus pairwise disjoint nonempty parts."""

    __slots__ = ("points", "parts")

    def __init__(self, points: Sequence[Sequence[Fraction]],
                 parts: Sequence[Sequence[int]]):
        self.points = tuple(tuple(Fraction(c) for c in p) for p in points)
        self.parts = check_parts(parts, len(self.points))


@dataclass(frozen=True)
class WeightWitness:
    """Strictly positive weights certifying a proper Tverberg tuple.

    ``weights`` lists only part indices; everything else is implicitly
    zero.  ``slack`` is the optimal eps, i.e. the least weight.
    """

    weights: dict[int, Fraction]
    common_point: tuple[Fraction, ...]
    slack: Fraction

    def verify(self, points, parts) -> bool:
        if self.slack <= 0:
            return False
        support = set()
        for part in parts:
            support.update(part)
        if set(self.weights) != support:
            return False
        if any(w <= 0 for w in self.weights.values()):
            return False
        if min(self.weights.values()) != self.slack:
            return False
        dim = len(points[0]) if points else 0
        for part in parts:
            if sum(self.weights[i] for i in part) != 1:
                return False
            for c in range(dim):
                s = sum(self.weights[i] * Fraction(points[i][c]) for i in part)
                if s != self.common_point[c]:
                    return False
        return True

    def to_json(self) -> dict:
        return {
            "weights": {str(i): str(w) for i, w in sorted(self.weights.items())},
            "common_point": [str(c) for c in self.common_point],
            "slack": str(self.slack),
        }

    @classmethod
    def from_json(cls, obj) -> "WeightWitness":
        return cls({int(i): Fraction(w) for i, w in obj["weights"].items()},
                   tuple(Fraction(c) for c in obj["common_point"]),
                   Fraction(obj["slack"]))


# --------------------------------------------------------------------------
# integer presolve for the equality system

def _solve_equalities_int(M, nvars):
    """Classify an integer augmented system: inconsistent/unique/under.

    Fraction-free elimination; exact throughout.  Returns
    ('inconsistent', None) | ('unique', list[Fraction]) |
    ('under', pivots), where M is then in echelon form with those pivots.
    """
    pivots = _eliminate_int(M, nvars)
    for rr in range(len(pivots), len(M)):
        if any(M[rr][:nvars]):
            raise VerificationBug("elimination left an unreduced row")
        if M[rr][nvars]:
            return "inconsistent", None
    if len(pivots) < nvars:
        return "under", pivots
    # unique: row k of the reduced form reads lead x_k = M[k][nvars]
    lead = _back_eliminate(M, pivots)
    return "unique", [Fraction(M[k][nvars], lead) for k in range(nvars)]


# --------------------------------------------------------------------------
# affine flats as integer equation rows

class Flat:
    """The affine flat {x : u.x = c for every row [u | c]} in integers.

    Rows are in reduced form at ``pivots`` with one common lead: row k
    holds ``lead`` > 0 in column pivots[k] and zero in every other pivot
    column.  Pivots need not be the rows' leading columns, and rows need
    not be primitive.  So the rows are independent and their number is
    the codimension.  No rows means the whole space.  Two flats meet by
    one elimination of their stacked rows.
    """

    __slots__ = ("dim", "rows", "pivots", "lead", "_residuals", "_point")

    def __init__(self, dim, rows, pivots, lead):
        self.dim = dim
        self.rows = rows
        self.pivots = pivots
        self.lead = lead
        self._residuals = None  # residuals by point index, once used
        self._point = self  # not read yet

    @property
    def codim(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows, dim) -> Optional["Flat"]:
        """The flat cut out by integer rows [u | c], or None when the rows
        are inconsistent."""
        M = list(rows)
        pivots = _eliminate_int(M, dim)
        rank = len(pivots)
        if any(row[dim] for row in M[rank:]):
            return None
        M = M[:rank]
        lead = _back_eliminate(M, pivots)
        return cls(dim, M, [pc for _, pc in pivots], lead)

    @classmethod
    def from_point(cls, x, lead) -> "Flat":
        """The flat {x / lead}, for lead > 0: the rows ``from_rows`` gives
        for that point, with x and lead divided by gcd(lead, *x)."""
        g = gcd(lead, *x)
        lead, dim = lead // g, len(x)
        rows = [[lead if j == k else 0 for j in range(dim)] + [x[k] // g]
                for k in range(dim)]
        return cls(dim, rows, list(range(dim)), lead)

    def residuals(self, grid, part) -> list[list[int]]:
        """For each point a = grid[i], i in the part, its residuals
        u.a - c, one per row [u | c], on the grid the rows were built on.

        Each point's residuals are computed once per flat.
        """
        cache = self._residuals
        if cache is None:
            cache = self._residuals = {}
        out = []
        for i in part:
            res = cache.get(i)
            if res is None:
                a, dim = grid[i], self.dim
                res = cache[i] = [sum(u * x for u, x in zip(row, a))
                                  - row[dim] for row in self.rows]
            out.append(res)
        return out

    def point(self) -> Optional[list[int]]:
        """``lead`` times the flat's only point, or None when the flat is
        more than a point; read once."""
        x = self._point
        if x is self:
            x = None
            if len(self.rows) == self.dim:
                x = [0] * self.dim
                for pc, row in zip(self.pivots, self.rows):
                    x[pc] = row[self.dim]
            self._point = x
        return x

    def meet(self, other: "Flat") -> Optional["Flat"]:
        """The intersection of the two flats, or None when it is empty:
        ``other`` when this flat has no rows, and this flat itself when
        ``other`` adds no rank to it."""
        if not self.rows:
            return other
        met = Flat.from_rows(self.rows + other.rows, self.dim)
        if met is not None and met.codim == self.codim:
            return self
        return met


def affine_hull(grid, part) -> Flat:
    """The affine hull of the points grid[i], i in the part, as a Flat.

    Its equations [u | c] (u.a_i = c on the part) are the kernel vectors
    [c | u] of the matrix with rows [-1 | a_i], read off that matrix's
    fraction-free reduced echelon form.  The constant column comes first,
    so it is always a pivot and every free column f is coordinate f - 1.
    ``_kernel_int`` gives one vector per free column, ``lead`` there and
    0 at the other free columns, which is already the Flat's reduced form
    with the free columns as pivots: no second elimination is needed.
    """
    dim = len(grid[part[0]])
    A = [[-1] + grid[i] for i in part]
    pivots = _eliminate_int(A, dim + 1)
    lead = _back_eliminate(A, pivots)
    taken = {pc for _, pc in pivots}
    rows = [v[1:] + [v[0]] for v in _kernel_int(A, pivots, lead, dim + 1)]
    return Flat(dim, rows, [j for j in range(dim) if j + 1 not in taken],
                lead)


def barycentric_map(grid, part) -> Optional[tuple[list[list[int]], int]]:
    """The barycentric coordinates on an affinely independent part's hull.

    Returns (L, D), an integer matrix and a denominator D > 0, such that
    every x on the affine hull of the points grid[i], i in the part, is
    sum_k lam_k grid[part[k]] with the unique lam = L [x | 1] / D.
    Returns None when the points are affinely dependent (repeated points
    included): their coordinates are not unique.

    L / D is the integer left inverse of B, the matrix with columns
    [a_i | 1], since B lam = [x | 1].
    """
    dim, k = len(grid[part[0]]), len(part)
    B = [[grid[i][c] for i in part] for c in range(dim)] + [[1] * k]
    # fraction-free reduction of [B | I] gives row operations E with
    # E B = D I, D the common pivot, so L = E
    M = [row + [int(j == c) for j in range(dim + 1)]
         for c, row in enumerate(B)]
    pivots = _eliminate_int(M, k)
    if len(pivots) < k:
        return None
    D = _back_eliminate(M, pivots)
    return [M[j][k:] for j in range(k)], D


# --------------------------------------------------------------------------
# exact two-phase simplex, Bland's anti-cycling rule

def _pivot(T, basis, row, col):
    piv = T[row][col]
    T[row] = [x / piv for x in T[row]]
    for r in range(len(T)):
        if r != row and T[r][col]:
            f = T[r][col]
            T[r] = [a - f * b for a, b in zip(T[r], T[row])]
    basis[row] = col


def _run_simplex(T, basis):
    """Maximize on the tableau in place under Bland's rule; return z.

    T's last row is the objective, z_j - c_j then z; ``_pivot`` keeps
    it priced against the current basis.
    """
    ncols = len(T[0]) - 1
    pivots = 0
    while True:
        col = next((j for j in range(ncols) if T[-1][j] < 0), None)
        if col is None:
            return T[-1][ncols]
        if pivots == SIMPLEX_ITERATION_CAP:
            raise VerificationBug("simplex exceeded its iteration bound")
        row = None
        best = None
        for r in range(len(T) - 1):
            a = T[r][col]
            if a > 0:
                ratio = T[r][ncols] / a
                if best is None or ratio < best or \
                        (ratio == best and basis[r] < basis[row]):
                    best, row = ratio, r
        if row is None:
            raise VerificationBug("objective unbounded (cannot happen here)")
        _pivot(T, basis, row, col)
        pivots += 1


def _simplex_max_eps(rows, rhs, nvars):
    """max eps s.t. t_i >= eps and the equality rows, via standard form.

    Variables: u_i = t_i - eps >= 0, eps = ep - em with ep, em >= 0.
    Each phase's objective is the tableau's last row.  Phase 1 maximizes
    -sum(artificials); priced against the artificial basis, its row is
    minus the column sums, zero on the artificial columns.  Phase 2
    maximizes ep - em, priced once against the basis phase 1 leaves.
    Returns (eps_opt, t) where t is a list of Fractions, or (None, None)
    when the equality system is infeasible.
    """
    m = len(rows)
    keep = nvars + 2  # u's, ep, em; the m artificials follow
    T = []
    for row, b in zip(rows, rhs):
        s = sum(row, Fraction(0))
        line = list(row) + [s, -s] + [Fraction(0)] * m + [b]
        T.append(line if b >= 0 else [-x for x in line])
    # phase 1: maximize -sum(artificials), their columns still zero here
    T.append([-sum(col) for col in zip(*T)])
    for r in range(m):
        T[r][keep + r] = Fraction(1)
    basis = [keep + r for r in range(m)]
    if _run_simplex(T, basis) != 0:
        return None, None
    T.pop()
    # drive leftover artificials out of the basis, drop redundant rows
    r = 0
    while r < len(T):
        if basis[r] >= keep:
            col = next((j for j in range(keep) if T[r][j]), None)
            if col is None:
                del T[r]
                del basis[r]
                continue
            _pivot(T, basis, r, col)
        r += 1
    # strip artificial columns; phase 2 prices ep - em against the basis
    T = [row[:keep] + [row[-1]] for row in T]
    obj = [Fraction(0)] * nvars + [Fraction(-1), Fraction(1), Fraction(0)]
    for row, b in zip(T, basis):
        if obj[b]:
            f = obj[b]
            obj = [z - f * x for z, x in zip(obj, row)]
    T.append(obj)
    eps = _run_simplex(T, basis)
    x = [Fraction(0)] * keep
    for r, b in enumerate(basis):
        x[b] = T[r][keep]
    t = [x[i] + eps for i in range(nvars)]
    return eps, t


# --------------------------------------------------------------------------
# nullity one in closed form

def _max_eps_line(M, pivots, nvars):
    """max over s of min_i t_i(s) for a system of nullity one, in integers.

    M is in echelon form with these pivots and one free column, so every
    weight is a line t_i(s) = (p_i + q_i s) / d_i in the free weight s,
    with d_i the common pivot of the reduced form for every pivot weight.
    The optimum eps* is the least of the constant lines (q_i = 0) and the
    crossing heights of the rising (q_i > 0) with the falling (q_j < 0)
    lines.  Returns ('nonpositive', None) when eps* <= 0, ('unique', t)
    when a crossing attains eps* and so fixes s, and ('interval', None)
    when a constant line lies strictly below every crossing: the optimal
    s then form an interval, and the simplex picks its vertex.
    """
    R = M[:len(pivots)]  # back-eliminated on a copy; M keeps its rows
    lead = _back_eliminate(R, pivots)
    taken = {pc for _, pc in pivots}
    free = next(j for j in range(nvars) if j not in taken)
    lines = [(0, 1, 1)] * nvars
    for row, (_, pc) in zip(R, pivots):
        lines[pc] = (row[nvars], -row[free], lead)
    rising = [ln for ln in lines if ln[1] > 0]
    falling = [ln for ln in lines if ln[1] < 0]
    if not falling:
        raise VerificationBug("pinned part sums leave no falling weight")
    low = None  # least constant line as (p, d)
    for p, q, d in lines:
        if q == 0:
            if p <= 0:
                return "nonpositive", None
            if low is None or p * low[1] < low[0] * d:
                low = (p, d)
    # the lines i, j cross at s = (p_j d_i - p_i d_j) / den and height
    # (q_i p_j - q_j p_i) / den, with den = q_i d_j - q_j d_i > 0
    best = None  # (height numerator, den, i, j)
    for i in rising:
        pi, qi, di = i
        for j in falling:
            pj, qj, dj = j
            num = qi * pj - qj * pi
            if num <= 0:
                return "nonpositive", None
            den = qi * dj - qj * di
            if best is None or num * best[1] < best[0] * den:
                best = (num, den, i, j)
    num, den, (pi, _, di), (pj, _, dj) = best
    if low is not None and low[0] * den < num * low[1]:
        return "interval", None
    s = pj * di - pi * dj
    return "unique", [Fraction(p * den + q * s, d * den) for p, q, d in lines]


class ExactWeightSolver:
    """Reusable proper-weight solver for one fixed point set.

    Coordinates are cleared to a shared integer grid once, so candidate
    systems are assembled and classified in pure integer arithmetic
    (uniform positive scaling changes no feasibility and no weights).
    Systems of nullity one are decided in closed form; only those of
    nullity two or more, or with an interval of optimal weights, reach
    the Fraction simplex.  Where the optimum is a single point every
    exact path returns it, so the path taken never changes a witness.
    """

    __slots__ = ("points", "ipoints", "dim")

    def __init__(self, points: Sequence[Sequence[Fraction]]):
        pts = [tuple(Fraction(c) for c in p) for p in points]
        self.points = tuple(pts)
        self.ipoints = integer_grid(pts)
        self.dim = len(pts[0]) if pts else 0

    def solve(self, parts) -> Optional[WeightWitness]:
        support = []
        for part in parts:
            support.extend(part)
        support.sort()
        col = {i: k for k, i in enumerate(support)}
        nvars = len(support)

        M: list[list[int]] = []
        for part in parts:
            row = [0] * (nvars + 1)
            for i in part:
                row[col[i]] = 1
            row[nvars] = 1
            M.append(row)
        base = parts[0]
        for part in parts[1:]:
            for c in range(self.dim):
                row = [0] * (nvars + 1)
                for i in part:
                    row[col[i]] += self.ipoints[i][c]
                for i in base:
                    row[col[i]] -= self.ipoints[i][c]
                M.append(row)

        status, sol = _solve_equalities_int(M, nvars)
        if status == "under" and len(sol) + 1 == nvars:
            status, sol = _max_eps_line(M, sol, nvars)
        if status in ("inconsistent", "nonpositive"):
            return None
        if status == "unique":
            t = sol
            if min(t) <= 0:
                return None
        else:  # nullity two or more, or an interval of optima
            rows = [[Fraction(x) for x in row[:nvars]] for row in M]
            rhs = [Fraction(row[nvars]) for row in M]
            eps, t = _simplex_max_eps(rows, rhs, nvars)
            if eps is None or eps <= 0:
                return None

        weights = {i: t[col[i]] for i in support}
        pts = self.points
        common = tuple(
            sum((weights[i] * pts[i][c] for i in base), Fraction(0))
            for c in range(self.dim))
        witness = WeightWitness(weights, common, min(t))
        if not witness.verify(pts, parts):
            raise VerificationBug("witness failed exact re-verification")
        return witness


def proper_weights(problem: ProperWeightProblem) -> Optional[WeightWitness]:
    """Witness weights for a proper tuple, or None when infeasible.

    The equality system is classified first by fraction-free elimination;
    a system of nullity one is decided in closed form, and only systems of
    nullity two or more, or with an interval of optimal weights, reach the
    simplex with Bland's anti-cycling rule.  Every returned witness
    re-verifies exactly.
    """
    return ExactWeightSolver(problem.points).solve(problem.parts)
