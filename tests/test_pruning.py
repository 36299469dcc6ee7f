"""The pruned Tverberg search and its exact tests against oracles.

The search oracle streams every candidate of the plain stream (no
constraint, part-size bound or solver), filters it by ``allowed``,
``max_part_size`` and ``constraint.admits``, and calls
``ExactWeightSolver.solve`` on each one.  Pruning removes
exactly the candidates whose parts' affine hulls miss each other or meet
in one point x at which some affinely independent part has a barycentric
coordinate <= 0, and on a line those whose parts' relative interiors
share no point, decided here from scratch in Fractions; every feasible
candidate stays, in order.
"""

from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fandist import feaslp, tverberg
from fandist.errors import SizeGateExceeded
from fandist.exactnum import ExactMatrix, _det_int
from fandist.feaslp import (
    ExactWeightSolver,
    Flat,
    affine_hull,
    barycentric_map,
    integer_grid,
)
from fandist.galedual import PointConfig
from fandist.genpos import (
    build_counterexample,
    found_equidistributing_tuple,
    random_config,
    verify_no_equidistribution,
)
from fandist.kneser import SetFamily, bitmask, threshold_caps
from fandist.tverberg import (
    SearchConstraint,
    _candidate_stream,
    _next_flat,
    search_tuple,
)

COORD = st.integers(-4, 4)


@st.composite
def degenerate_points(draw, n, d):
    """n points in Q^d: generic, repeated, collinear or on a hyperplane."""
    pts = draw(st.lists(st.lists(COORD, min_size=d, max_size=d),
                        min_size=n, max_size=n))
    kind = draw(st.sampled_from(["generic", "repeated", "collinear",
                                 "hyperplane"]))
    if kind == "repeated":
        for i in range(1, n):
            if draw(st.booleans()):
                pts[i] = list(pts[draw(st.integers(0, i - 1))])
    elif kind == "collinear":
        step = draw(st.lists(COORD, min_size=d, max_size=d).filter(any))
        ts = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        pts = [[a + t * v for a, v in zip(pts[0], step)] for t in ts]
    elif kind == "hyperplane" and d > 1:
        w = draw(st.lists(COORD, min_size=d - 1, max_size=d - 1))
        c = draw(COORD)
        pts = [p[:-1] + [sum(a * b for a, b in zip(w, p)) + c] for p in pts]
    # a common fractional translation and scale keep every affine relation
    den = draw(st.integers(1, 6))
    shift = [F(draw(COORD), draw(st.integers(1, 5))) for _ in range(d)]
    return [[F(x, den) + s for x, s in zip(p, shift)] for p in pts]


@st.composite
def search_cases(draw, min_dim=1, rs=(2, 3, 4)):
    r = draw(st.sampled_from(rs))
    d = draw(st.integers(min_dim, 3))
    n = draw(st.integers(r, 6))
    points = draw(degenerate_points(n, d))
    kind = draw(st.sampled_from(["none", "family-avoid", "color-cap",
                                 "rainbow"]))
    constraint = None
    if kind == "family-avoid":
        members = draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3),
            min_size=1, max_size=3))
        constraint = SearchConstraint.family_avoid(SetFamily(n, members))
    elif kind in ("color-cap", "rainbow"):
        coloring = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        if kind == "rainbow":
            constraint = SearchConstraint.rainbow(coloring)
        else:
            caps = {k: draw(st.integers(1, 3))
                    for k in range(max(coloring) + 1)}
            constraint = SearchConstraint.color_cap(caps, coloring)
    allowed = None
    if draw(st.booleans()):
        allowed = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    max_part_size = draw(st.one_of(st.none(), st.integers(1, 3)))
    return points, r, constraint, allowed, max_part_size


def oracle_candidates(n, r, constraint, allowed, max_part_size):
    pool = set(range(n)) if allowed is None else set(allowed)
    for parts in _candidate_stream(range(n), r, None, None):
        if any(i not in pool for p in parts for i in p):
            continue
        if max_part_size is not None and \
                any(len(p) > max_part_size for p in parts):
            continue
        if constraint is not None and not constraint.admits(parts):
            continue
        yield parts


def rref(rows, ncols):
    """Reduced row echelon form over Fractions: (rows, pivot columns)."""
    M = [[F(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        M[r] = [x / M[r][c] for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                M[i] = [a - M[i][c] * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
    return M, pivots


def hulls_meet(points, parts):
    """(whether the parts' affine hulls meet, their only point or None).

    Unknowns: one affine weight mu_i per index, then x; x = sum mu_i a_i
    and sum mu_i = 1 on each part.  Eliminating the mu columns first
    leaves the rows that constrain x alone.
    """
    d = len(points[0])
    support = [i for p in parts for i in p]
    col = {i: k for k, i in enumerate(support)}
    nmu = len(support)
    rows = []
    for p in parts:
        for c in range(d):
            row = [0] * (nmu + d + 1)
            for i in p:
                row[col[i]] = -points[i][c]
            row[nmu + c] = 1
            rows.append(row)
        row = [0] * (nmu + d + 1)
        for i in p:
            row[col[i]] = 1
        row[-1] = 1
        rows.append(row)
    M, pivots = rref(rows, nmu + d)
    if any(row[-1] for row in M[len(pivots):]):
        return False, None
    on_x = [(c - nmu, row[-1]) for c, row in zip(pivots, M) if c >= nmu]
    if len(on_x) < d:
        return True, None
    return True, tuple(v for _, v in sorted(on_x))


def coordinates(points, part, x):
    """The barycentric coordinates of x on the part's hull, or None when
    the part is affinely dependent (x lies on the hull)."""
    d = len(points[0])
    rows = [[points[i][c] for i in part] + [x[c]] for c in range(d)]
    rows.append([1] * len(part) + [1])
    M, pivots = rref(rows, len(part))
    if len(pivots) < len(part):
        return None
    return [M[k][-1] for k in range(len(part))]


def relative_interiors_meet(points, parts):
    """On a line: whether the parts' relative interiors share a point.

    A part's relative interior is the open interval between its least and
    greatest point, or its one point when they coincide.  A nonempty
    intersection holds an endpoint or the midpoint of two neighbouring
    endpoints.
    """
    ends = sorted({points[i][0] for p in parts for i in p})
    probes = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]

    def inside(x, part):
        lo = min(points[i][0] for i in part)
        hi = max(points[i][0] for i in part)
        return lo < x < hi or lo == x == hi

    return any(all(inside(x, p) for p in parts) for x in probes)


def pruned_by_oracle(points, parts):
    if len(points[0]) == 1:
        return not relative_interiors_meet(points, parts)
    meet, x = hulls_meet(points, parts)
    if not meet:
        return True
    if x is None:
        return False
    return any(lam is not None and min(lam) <= 0
               for lam in (coordinates(points, p, x) for p in parts))


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@example(([[F(x)] for x in (0, 0, 0, 0, 0, 1)], 2, None, None, None))
@given(search_cases())
def test_pruned_search_matches_oracle(case):
    # in the example the part (0,) is the point 0, which is not in the
    # open interval (0, 1) of the part (1, 2, 3, 4, 5)
    points, r, constraint, allowed, max_part_size = case
    n, d = len(points), len(points[0])
    cfg = PointConfig(d, points)
    solver = ExactWeightSolver(points)
    oracle = list(oracle_candidates(n, r, constraint, allowed,
                                    max_part_size))
    witnesses = [solver.solve(parts) for parts in oracle]

    indices = range(n) if allowed is None else allowed
    plain = list(_candidate_stream(indices, r, constraint, max_part_size))
    assert plain == oracle
    pruned = list(_candidate_stream(indices, r, constraint, max_part_size,
                                    solver))
    assert pruned == [parts for parts in oracle
                      if not pruned_by_oracle(points, parts)]
    feasible = [parts for parts, w in zip(oracle, witnesses) if w is not None]
    assert [parts for parts in pruned if parts in feasible] == feasible

    first = next(((parts, w) for parts, w in zip(oracle, witnesses)
                  if w is not None), None)
    got = search_tuple(cfg, r, constraint, allowed=allowed,
                       max_part_size=max_part_size)
    if first is None:
        assert got is None
    else:
        assert got is not None
        assert (got.parts, got.witness) == first


@st.composite
def line_cases(draw):
    """Points on a line, most of them repeated, and a constrained search."""
    r = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(r, 6))
    den = draw(st.integers(1, 4))
    points = [[F(x, den)] for x in draw(st.lists(
        st.integers(0, 3), min_size=n, max_size=n))]
    coloring = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    members = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=2), min_size=1, max_size=2))
    constraint = draw(st.sampled_from([
        None, SearchConstraint.rainbow(coloring),
        SearchConstraint.color_cap({0: 2}, coloring),
        SearchConstraint.family_avoid(SetFamily(n, members))]))
    max_part_size = draw(st.one_of(st.none(), st.integers(1, 3)))
    return points, r, constraint, max_part_size


@settings(max_examples=100, deadline=None)
@example(([[F(0)], [F(1)], [F(1)], [F(2)]], 2, None, None))
@example(([[F(0)], [F(0)], [F(0)], [F(1)]], 2, None, None))
@given(line_cases())
def test_line_stream_emits_exactly_the_proper_candidates(case):
    # on a line the interval test decides properness: the pruned stream
    # is the unpruned one filtered by the solver.  In the examples the
    # intervals must be open (the parts (0, 1) and (2, 3) span [0, 1] and
    # [1, 2], which touch only at 1) and the part of one repeated point
    # must be that point (the parts (0,) and (1,) are both the point 0)
    points, r, constraint, max_part_size = case
    solver = ExactWeightSolver(points)
    indices = range(len(points))
    plain = _candidate_stream(indices, r, constraint, max_part_size)
    pruned = _candidate_stream(indices, r, constraint, max_part_size, solver)
    assert list(pruned) == [parts for parts in plain
                            if solver.solve(parts) is not None]


@st.composite
def hull_points(draw):
    """(points, part, w): affine weights w (sum 1) on the part's points."""
    d = draw(st.integers(1, 3))
    points = draw(degenerate_points(draw(st.integers(1, d + 2)), d))
    part = sorted(draw(st.sets(st.integers(0, len(points) - 1), min_size=1)))
    w = [F(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
         for _ in part[1:]]
    return points, part, w + [1 - sum(w)]


@settings(max_examples=200, deadline=None)
@given(hull_points())
def test_barycentric_map_matches_fraction_oracle(case):
    points, part, w = case
    grid = integer_grid(points)
    d = len(grid[0])
    x = [sum(wk * grid[i][c] for wk, i in zip(w, part)) for c in range(d)]
    bary = barycentric_map(grid, part)
    lam = coordinates(grid, part, x)
    assert (bary is None) == (lam is None)
    # the stream's integer sign test, with x read as X / lead
    lead = 1
    for c in x:
        lead = lead * c.denominator // gcd(lead, c.denominator)
    X = [int(c * lead) for c in x]
    positive = tverberg._PartHull(grid, part, {}).positive_at(X, lead)
    assert positive == (lam is None or min(lam) > 0)
    if bary is None:
        return
    L, D = bary
    assert D > 0
    assert [F(sum(a * b for a, b in zip(row, x)) + row[-1], D)
            for row in L] == lam


BIG = 2 ** 1200


@st.composite
def point_sets(draw):
    """(d, points, part, other): points as ``degenerate_points`` draws
    them, or moved by an integer affine map with entries of about 1,200
    bits; part and other are nonempty index sets."""
    d = draw(st.integers(1, 5))
    points = draw(degenerate_points(draw(st.integers(1, 6)), d))
    if draw(st.booleans()):
        big = st.tuples(st.sampled_from([-1, 1]),
                        st.integers(BIG // 2, BIG)).map(lambda t: t[0] * t[1])
        S = [[draw(big) for _ in range(d)] for _ in range(d)]
        t = [draw(big) for _ in range(d)]
        points = [[sum(a * x for a, x in zip(row, p)) + c
                   for row, c in zip(S, t)] for p in points]
    idx = st.sets(st.integers(0, len(points) - 1), min_size=1)
    return d, points, sorted(draw(idx)), sorted(draw(idx))


def hull_by_two_eliminations(grid, part):
    """The hull flat by two eliminations: the kernel of the rows
    [a_i | -1], reduced again by ``Flat.from_rows``.  The oracle of
    ``affine_hull``."""
    dim = len(grid[part[0]])
    A = [grid[i] + [-1] for i in part]
    pivots = feaslp._eliminate_int(A, dim + 1)
    lead = feaslp._back_eliminate(A, pivots)
    return Flat.from_rows(feaslp._kernel_int(A, pivots, lead, dim + 1), dim)


def _codim(flat):
    return None if flat is None else flat.codim


@settings(max_examples=120, deadline=None)
@example((5, [[F(BIG + 7 * c) for c in range(5)]], [0], [0]))
@example((5, [[F(BIG - c) for c in range(5)]] * 3
          + [[F(c) for c in range(5)]], [0, 1, 2], [2, 3]))
@example((3, [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)],
              [F(1), F(1), F(1)]], [0, 1], [2, 3]))
@given(point_sets())
def test_affine_hull_cuts_out_the_hull(case):
    d, points, part, other = case
    grid = integer_grid(points)
    hull = affine_hull(grid, part)

    def rank(idx):
        return len(feaslp._eliminate_int([grid[i] + [1] for i in idx],
                                         d + 1))

    assert hull.codim == d + 1 - rank(part)
    for i in range(len(points)):
        on = all(sum(u * x for u, x in zip(row, grid[i])) == row[d]
                 for row in hull.rows)
        assert on == (rank(part + [i]) == rank(part))
    # the reduced form at coordinate pivots with one positive lead
    assert hull.lead > 0
    assert len(set(hull.pivots)) == len(hull.pivots) == hull.codim
    assert all(0 <= pc < d for pc in hull.pivots)
    for row, pc in zip(hull.rows, hull.pivots):
        assert len(row) == d + 1
        assert [row[q] for q in hull.pivots] == \
            [hull.lead if q == pc else 0 for q in hull.pivots]
    # every consumer reads the same flat as from the old construction
    want = hull_by_two_eliminations(grid, part)
    second = hull_by_two_eliminations(grid, other)
    assert hull.codim == want.codim
    assert flat_point(hull) == flat_point(want)
    assert (hull.meet(second) is hull) == (want.meet(second) is want)
    assert (second.meet(hull) is second) == (second.meet(want) is second)
    for got, exp in ((hull.meet(second), want.meet(second)),
                     (second.meet(hull), second.meet(want))):
        assert _codim(got) == _codim(exp)
        if got is not None:
            assert flat_point(got) == flat_point(exp)


@st.composite
def flat_pairs(draw):
    """Two (flat, point) pairs on the grid of ``point_sets`` points.  A
    flat is the hull of an index set, degenerate sets included, with
    point None, or the point flat at lead times a grid point or at a
    small rational point, given unreduced to ``Flat.from_point``, with
    that point as Fractions."""
    d, points, part, other = draw(point_sets())
    grid = integer_grid(points)

    def flat(idx):
        kind = draw(st.sampled_from(["hull", "grid point", "point"]))
        if kind == "hull":
            return affine_hull(grid, idx), None
        k = draw(st.integers(1, 6))
        if kind == "grid point":
            x, lead = grid[idx[0]], k
        else:
            x = draw(st.lists(COORD, min_size=d, max_size=d))
            lead = draw(st.integers(1, 6))
        return (Flat.from_point([k * c for c in x], k * lead),
                [F(c, lead) for c in x])

    return flat(part), flat(other)


def _rank(rows):
    return ExactMatrix([[F(x) for x in row] for row in rows]).rank()


@settings(max_examples=200, deadline=None)
@given(flat_pairs())
def test_meet_against_the_stacked_system(case):
    # the meet is empty exactly when the stacked rows [u | c] have no
    # solution; otherwise its codim is the rank of the stacked u, its
    # rows span the stacked rows' space, and it is this flat itself
    # exactly when that rank did not grow
    (a, xa), (b, xb) = case
    dim = a.dim
    for f, x in ((a, xa), (b, xb)):
        if x is not None:
            # a reduced point flat, as from_rows builds it
            lead = 1
            for c in x:
                lead = lead * c.denominator // gcd(lead, c.denominator)
            want = Flat.from_rows(
                [[lead * (j == k) for j in range(dim)] + [int(c * lead)]
                 for k, c in enumerate(x)], dim)
            assert (f.rows, f.pivots, f.lead) == \
                (want.rows, want.pivots, want.lead)
    rows = a.rows + b.rows
    met = a.meet(b)
    if not rows:
        assert met is b and met.codim == 0
        return
    U = ExactMatrix([[F(x) for x in row[:dim]] for row in rows])
    sol = U.solve([F(row[dim]) for row in rows])
    assert (met is None) == (sol is None)
    if met is None:
        return
    assert met.codim == U.rank()
    assert _rank(rows + met.rows) == _rank(rows)
    if a.rows:
        assert (met is a) == (met.codim == a.codim)
    else:
        assert met is b


def _outcome(cfg, r, gate):
    try:
        tup = search_tuple(cfg, r, lp_gate=gate)
    except SizeGateExceeded:
        return "gate"
    return tup


@pytest.mark.parametrize("points,d,r", [
    ([[i] for i in range(1, 8)], 1, 3),                      # feasible
    ([[F(x), F(y)] for x, y in ((0, 0), (5, 1), (1, 6), (7, 7), (2, 3),
                                (6, 2))], 2, 3),             # none
])
def test_gate_sweep_matches_ungated(points, d, r):
    # the gate trips below one threshold and changes nothing from there on
    cfg = PointConfig(d, points)
    ungated = search_tuple(cfg, r)
    lo, hi = 0, 1000
    assert _outcome(cfg, r, lo) == "gate" and _outcome(cfg, r, hi) == ungated
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _outcome(cfg, r, mid) == "gate":
            lo = mid
        else:
            hi = mid
    for gate in sorted({*range(0, hi + 100, 50), hi - 1, hi, hi + 1}):
        want = "gate" if gate < hi else ungated
        assert _outcome(cfg, r, gate) == want, gate


def test_line_gate_counts_interval_tests():
    # on a line each interval test of a part after the first counts one
    # check, as a flat test does: 157 checks up to the first proper tuple
    # (hull-flat tests made 432)
    cfg = PointConfig(1, [[i] for i in range(1, 8)])
    assert search_tuple(cfg, 3, lp_gate=157) is not None
    with pytest.raises(SizeGateExceeded):
        search_tuple(cfg, 3, lp_gate=156)


def test_uncapped_stream_trips_a_small_gate_early():
    # the part table is filled only as far as the walk goes: an uncapped
    # search over 26 points in convex position trips a gate of 50 checks
    # after a few hundred may_add calls, not after listing the 2^25
    # parts that hold index 0, and it asks may_add once per table entry
    calls = []

    class Counting:
        def may_add(self, mask, i):
            calls.append((mask, i))
            assert len(calls) <= 5000, "part table built eagerly"
            return True

        def admits(self, parts):
            return True

    cfg = PointConfig(2, [[F(t), F(t * t)] for t in range(26)])
    with pytest.raises(SizeGateExceeded):
        search_tuple(cfg, 2, Counting(), lp_gate=50)
    assert len(calls) == len(set(calls))


def test_ell_four_certification_needs_no_solve(monkeypatch):
    calls = []
    solve = ExactWeightSolver.solve

    def counting(self, parts):
        calls.append(parts)
        return solve(self, parts)

    monkeypatch.setattr(ExactWeightSolver, "solve", counting)
    inst = build_counterexample(3, 2, 1, 0, 4, seed=1)
    assert verify_no_equidistribution(inst) is True
    assert calls == []


def test_ell_four_certification_gate_pinned():
    # one feasibility check per flat test: the stream makes 14,938 of them
    inst = build_counterexample(3, 2, 1, 0, 4, seed=1)
    assert found_equidistributing_tuple(inst, lp_gate=14938) is None
    with pytest.raises(SizeGateExceeded):
        found_equidistributing_tuple(inst, lp_gate=14937)


# -- the flat test through a part's points against hull meets ----------------

def hull_meet_next_flat(flat, hull, chosen, last):
    """The stream's flat test by meets of the parts' hull flats: the
    reference for ``tverberg._next_flat``.  The prefix of one part
    carries no flat (None): its flat is the part's own."""
    if flat is None:
        flat = chosen[0].flat
    point = flat.point()
    if point is not None:
        return flat if hull.holds(point, flat.lead) else None
    if last and flat.codim + hull.flat.codim < flat.dim:
        # the last part's flat is never met again and the meet cannot be
        # a point: test only
        return flat if flat.meet(hull.flat) is not None else None
    met = flat.meet(hull.flat)
    point = None if met is None else met.point()
    if point is not None and not all(h.positive_at(point, met.lead)
                                     for h in chosen + (hull,)):
        return None
    return met


def flat_point(flat):
    x = flat.point()
    return None if x is None else [F(c, flat.lead) for c in x]


def drive(monkeypatch, next_flat, stream):
    """(emitted candidates, feasibility checks) of the stream when it
    tests each part with ``next_flat``: one check per test and per
    emitted candidate."""
    tests = 0

    def spy(*args):
        nonlocal tests
        tests += 1
        return next_flat(*args)

    monkeypatch.setattr(tverberg, "_next_flat", spy)
    emitted = list(stream())
    return emitted, tests + len(emitted)


def both_flat_tests(flat, hull, chosen, last):
    got = _next_flat(flat, hull, chosen, last)
    want = hull_meet_next_flat(flat, hull, chosen, last)
    assert (got is None) == (want is None)
    if got is not None:
        assert flat_point(got) == flat_point(want)
        # the same equations too, so every later test starts alike
        assert (got.rows, got.pivots, got.lead) == \
            (want.rows, want.pivots, want.lead)
    return got


@settings(max_examples=60, deadline=None)
@example(([[F(0), F(0)], [F(2), F(0)], [F(1), F(0)], [F(1), F(1)]], 2,
          None, None, None))
@given(search_cases(min_dim=2))
def test_flat_test_matches_hull_meets(case):
    # in the example the part {2, 3} meets the line of {0, 1} at point 2,
    # where its barycentric coordinates are (1, 0)
    points, r, constraint, allowed, max_part_size = case
    solver = ExactWeightSolver(points)
    indices = range(len(points)) if allowed is None else allowed
    def stream():
        return _candidate_stream(indices, r, constraint, max_part_size,
                                 solver)

    with pytest.MonkeyPatch.context() as monkeypatch:
        want = drive(monkeypatch, hull_meet_next_flat, stream)
        assert drive(monkeypatch, both_flat_tests, stream) == want


def test_flat_test_matches_hull_meets_on_certification(monkeypatch):
    # the stream of found_equidistributing_tuple; its emitted candidates
    # and check count are those of the gate pin above
    inst = build_counterexample(3, 2, 1, 0, 4, seed=1)
    c1 = inst.class_one()
    cap = threshold_caps([len(c1)], inst.r)[0]
    solver = ExactWeightSolver(inst.lifted_primal.points)
    assert drive(monkeypatch, both_flat_tests, lambda: _candidate_stream(
        c1, inst.r, None, cap, solver)) == ([], 14938)


# -- pair tests by one affine-dependence record per union --------------------

def dependences(points, union):
    """A basis of the affine dependences of the points, in Fractions."""
    d = len(points[0])
    rows = [[points[i][c] for i in union] for c in range(d)]
    rows.append([1] * len(union))
    M, pivots = rref(rows, len(union))
    basis = []
    for f in (c for c in range(len(union)) if c not in pivots):
        v = [F(0)] * len(union)
        v[f] = F(1)
        for k, pc in enumerate(pivots):
            v[pc] = -M[k][f]
        basis.append(v)
    return basis


def check_union_record(points, mask, record):
    """A union's record against its dependences: none, a miss; more, a
    fallback; one with a zero entry, a miss, also when it is one part's
    own dependence; one with no zero, the split into its sign sides, named
    by one side, and their hulls' meet point."""
    union = [i for i in range(len(points)) if mask >> i & 1]
    basis = dependences(points, union)
    if not basis or len(basis) == 1 and not all(basis[0]):
        assert record == tverberg._MISS
    elif len(basis) > 1:
        assert record == tverberg._FALLBACK
    else:
        assert isinstance(record, tverberg._Split)
        lam = dict(zip(union, basis[0]))
        side = {i: x for i, x in lam.items() if record.pos >> i & 1}
        assert set(side) in ({i for i, x in lam.items() if x > 0},
                             {i for i, x in lam.items() if x < 0})
        s = sum(side.values())
        assert flat_point(record.meet()) == [
            sum(x * points[i][c] for i, x in side.items()) / s
            for c in range(len(points[0]))]


# in the first example, 0 and 1 coincide (a dependent first part),
# {2, 3, 4} lie on a line that misses 0 (one dependence with s = 0 at the
# split {0} | {2, 3, 4}) and {0} | {2, 3, 4, 5} has two dependences; 0
# lies in the hull of {2, 3, 4, 5}, so the test does not miss there.  In
# the second, three segments cross at the origin, and the point test of
# {4, 5} after {0, 1}, {2, 3} passes at the record of {2, 3, 4, 5}
@settings(max_examples=80, deadline=None)
@example(([[F(x), F(y)] for x, y in ((0, 0), (0, 0), (-1, 1), (0, 1),
                                     (2, 1), (0, -1))], 3, None, None,
          None))
@example(([[F(x), F(y)] for x, y in ((-1, 0), (1, 0), (0, -1), (0, 1),
                                     (-1, -1), (1, 1))], 3, None, None,
          None))
@given(search_cases(min_dim=2, rs=(3, 4)))
def test_pair_records_match_hull_meets(case):
    points, r, constraint, allowed, max_part_size = case
    solver = ExactWeightSolver(points)
    grid = solver.ipoints
    indices = range(len(points)) if allowed is None else allowed
    states = []

    def stream():
        states.append(tverberg._SearchState())
        return _candidate_stream(indices, r, constraint, max_part_size,
                                 solver, states[-1])

    with pytest.MonkeyPatch.context() as monkeypatch:
        want = drive(monkeypatch, hull_meet_next_flat, stream)
        assert not states[-1].unions
        assert drive(monkeypatch, both_flat_tests, stream) == want
    for mask, record in states[-1].unions.items():
        check_union_record(grid, mask, record)


@pytest.mark.parametrize("pair, meets", [
    (((1, 1, 2), (1, 1, 2)), False),  # coincident: P is dependent
    (((1, 1, -2), (1, 1, 2)), True),  # a segment through the triangle
    (((5, 5, -2), (5, 5, 2)), False),  # through its plane, outside it
])
def test_union_record_read_off_the_larger_part(pair, meets):
    # P = {0, 1} has fewer points than the triangle J = {2, 3, 4}; point
    # 5 lies off the triangle's plane, so the frame of all six points is
    # 3-D and the record reads five minors.  Each union has one
    # dependence: P's own where P is dependent, zero on the larger part J,
    # so a miss, as the parts' affine spans cannot meet; else it has no
    # zero, and the record names its sign sides, P | J only where they
    # meet
    points = [[F(x) for x in p] for p in
              pair + ((0, 0, 0), (4, 0, 0), (0, 4, 0), (1, 1, 3))]
    grid = ExactWeightSolver(points).ipoints
    state = tverberg._SearchState()
    state.indices = range(len(points))
    first = tverberg._PartHull(grid, (0, 1), state)
    hull = tverberg._PartHull(grid, (2, 3, 4), state)
    met = both_flat_tests(first.flat, hull, (first,), False)
    assert (met is not None) == meets
    mask = first.mask | hull.mask
    record = state.unions[mask]
    assert (record is tverberg._MISS) == (pair[0] == pair[1])
    check_union_record(grid, mask, record)


@st.composite
def frame_points(draw):
    """Integer points spanning 1 to 5 dimensions, some repeated and some
    on a line through two others, with enough of them that an
    (e + 1)-subset can leave the first e + 1 independent ones entirely.
    Each point keeps its coordinates and takes up to two more, integer
    affine functions of them, placed first."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(d + 2, 2 * d + 3))
    pts = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d,
                                 max_size=d), min_size=n, max_size=n))
    for i in range(2, n):
        kind = draw(st.sampled_from(["free", "free", "repeated",
                                     "collinear"]))
        j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
        t = draw(st.integers(-2, 2))
        if kind == "repeated":
            pts[i] = list(pts[j])
        elif kind == "collinear":
            pts[i] = [a + t * (b - a) for a, b in zip(pts[j], pts[k])]
    extra = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d + 1,
                                   max_size=d + 1), max_size=2))
    return [[sum(a * x for a, x in zip(row, p + [1])) for row in extra] + p
            for p in pts]


# the frame's basis B is the first e + 1 indices with independent
# columns; S takes t of its indices off B, for every t that the points
# allow, so both the sign and the division by D^(t - 1) are exercised
@settings(max_examples=150, deadline=None)
@given(frame_points(), st.data())
def test_minors_read_off_the_frame_basis(grid, data):
    n = len(grid)
    state = tverberg._SearchState()
    state.indices = range(n)
    cols, e = state.frame(grid)
    assume(e >= 1)
    _, basis = rref([[cols[i][c] for i in range(n)] for c in range(e + 1)],
                    n)
    assert len(basis) == e + 1
    off = [i for i in range(n) if i not in basis]
    asked = set()
    for t in range(min(e + 1, len(off)) + 1):
        new = data.draw(st.lists(st.sampled_from(off), min_size=t,
                                 max_size=t, unique=True)) if t else []
        common = data.draw(st.lists(st.sampled_from(basis),
                                    min_size=e + 1 - t, max_size=e + 1 - t,
                                    unique=True))
        asked.add(bitmask(new + common))
    if n <= 8:
        asked.update(bitmask(S) for S in combinations(range(n), e + 1))
    for mask in asked:
        state.minor(mask)
    assert set(state.minors) == asked
    for mask, m in state.minors.items():
        assert m == _det_int([cols[i] for i in range(n) if mask >> i & 1])


@st.composite
def embedded_points(draw):
    """(points, embedded, r, max_part_size): n planar or 3-D integer points,
    some repeated and some on a line through two others, and their images
    in a higher-dimensional grid: each point takes a constant last
    coordinate, as the certification's lift does, and then an injective
    integer affine map."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(4, 7))
    pts = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d,
                                 max_size=d), min_size=n, max_size=n))
    for i in range(2, n):
        kind = draw(st.sampled_from(["free", "repeated", "collinear"]))
        j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
        t = draw(st.integers(-2, 2))
        if kind == "repeated":
            pts[i] = list(pts[j])
        elif kind == "collinear":
            pts[i] = [a + t * (b - a) for a, b in zip(pts[j], pts[k])]
    dim = d + 1 + draw(st.integers(0, 2))
    A = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d + 1,
                               max_size=d + 1), min_size=dim, max_size=dim)
             .filter(lambda A: ExactMatrix(
                 [[F(x) for x in row] for row in A]).rank() == d + 1))
    b = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
    embedded = [[F(sum(a * x for a, x in zip(row, p + [1])) + c)
                 for row, c in zip(A, b)] for p in pts]
    return ([[F(x) for x in p] for p in pts], embedded,
            draw(st.sampled_from([3, 4])),
            draw(st.sampled_from([None, 2, 3])))


def record_kinds(state):
    """Each union's record kind, a split as the pair of its sides."""
    return {mask: record if isinstance(record, str)
            else {record.pos, mask ^ record.pos}
            for mask, record in state.unions.items()}


# the records read minors in the frame of the search's points.  In the
# first example 0, 2 and 3 lie on a line, so the union {2, 3}, padded
# with 0, has a zero minor although it is independent, and its kernel
# decides the miss; in the second {1, 2, 3} lies on a line off point 0,
# so the only dependence of {0, 1, 2, 3} is the larger part's own, zero
# at 0, and its record, first read at the split {0} | {1, 2, 3}, misses
@settings(max_examples=60, deadline=None)
@example(([[F(0), F(0)], [F(0), F(1)], [F(1), F(0)], [F(2), F(0)]],
          [[F(0), F(0), F(1)], [F(0), F(1), F(1)], [F(1), F(0), F(1)],
           [F(2), F(0), F(1)]], 3, None))
@example(([[F(0), F(1)], [F(0), F(0)], [F(2), F(0)], [F(1), F(0)],
           [F(1), F(1)]],
          [[F(0), F(1), F(1)], [F(0), F(0), F(1)], [F(2), F(0), F(1)],
           [F(1), F(0), F(1)], [F(1), F(1), F(1)]], 3, None))
@given(embedded_points())
def test_union_records_keep_under_an_affine_embedding(case):
    points, embedded, r, max_part_size = case
    runs = []
    for pts in (points, embedded):
        solver = ExactWeightSolver(pts)
        state = tverberg._SearchState()
        emitted = list(_candidate_stream(range(len(pts)), r, None,
                                         max_part_size, solver, state))
        runs.append((emitted, state.checks, record_kinds(state)))
        for mask, record in state.unions.items():
            check_union_record(solver.ipoints, mask, record)
    assert runs[0] == runs[1]


def test_certification_builds_one_record_per_union(monkeypatch):
    # the ell=4 certification makes 14,938 checks, its 12,100 pair tests
    # and 2,838 point tests, all decided by records; its 1,474 unions hold
    # 1,012 misses and 462 lines, and 250 of those build their meet point.
    # The records read 462 minors in the frame, the one affine hull built,
    # and no part's hull flat, barycentric map or elimination: one
    # reduction of the frame's columns and D = det(B) read every minor,
    # each with one determinant of its t > 0 indices off the basis B
    inst = build_counterexample(3, 2, 1, 0, 4, seed=1)
    c1 = inst.class_one()
    cap = threshold_caps([len(c1)], inst.r)[0]
    solver = ExactWeightSolver(inst.lifted_primal.points)
    tests = Counter()
    calls = Counter()
    hulls = []
    next_flat, hull_of = tverberg._next_flat, tverberg.affine_hull

    def counting(name, f):
        def spy(*args):
            calls[name] += 1
            return f(*args)
        return spy

    def spy_hull(grid, part):
        hulls.append(tuple(part))
        return hull_of(grid, part)

    def spy(flat, hull, chosen, last):
        tests["pair" if len(chosen) == 1 and not last else
              "point" if flat.point() is not None else "other"] += 1
        return next_flat(flat, hull, chosen, last)

    def no_holds(*args):
        raise AssertionError("a point test fell back to holds")

    monkeypatch.setattr(tverberg, "_next_flat", spy)
    monkeypatch.setattr(tverberg._PartHull, "holds", no_holds)
    monkeypatch.setattr(tverberg, "affine_hull", spy_hull)
    for name in ("_det_int", "_rref_int", "barycentric_map",
                 "_eliminate_int"):
        monkeypatch.setattr(tverberg, name,
                            counting(name, getattr(tverberg, name)))
    state = tverberg._SearchState()
    assert list(_candidate_stream(c1, inst.r, None, cap, solver,
                                  state)) == []
    assert tests == {"pair": 12100, "point": 2838}
    assert state.checks == 14938
    assert calls == {"_rref_int": 1, "_det_int": 462}
    assert len(state.minors) == 462
    assert hulls == [tuple(c1)]
    records = state.unions.values()
    assert Counter(record if isinstance(record, str) else "line"
                   for record in records) == {tverberg._MISS: 1012,
                                              "line": 462}
    assert sum(record._meet is not None for record in records
               if isinstance(record, tverberg._Split)) == 250



@pytest.mark.parametrize("n, dim, e, minors", [(11, 9, 9, 11), (9, 6, 6, 36)])
def test_high_dimensional_searches_memoise_only_the_minors_they_read(
        n, dim, e, minors):
    # an uncapped r = 3 search over points spanning many dimensions reads
    # few of the frame's (e + 1)-subsets, and keeps only those
    solver = ExactWeightSolver(random_config(n, dim, seed=1).points)
    state = tverberg._SearchState()
    assert list(_candidate_stream(range(n), 3, None, None, solver,
                                  state)) == []
    assert state.frame(solver.ipoints)[1] == e
    assert len(state.minors) == minors

# -- the set condition against a from-scratch set/count oracle ---------------

@st.composite
def set_conditions(draw):
    """(n, coloring, caps, members, constraint) as the drivers build them.

    The coloring may carry one augmented index past the n points, in
    class 0 (``equidistribute``) or in a class of its own (``rainbow``).
    """
    n = draw(st.integers(1, 6))
    coloring = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    m = max(coloring) + 1
    coloring += draw(st.sampled_from([[], [0], [m]]))
    kind = draw(st.sampled_from(["color-cap", "rainbow", "family-avoid"]))
    caps, members = {}, []
    if kind == "color-cap":
        # some classes missing (uncapped), some capped at 0
        caps = {c: draw(st.integers(0, 3)) for c in range(m + 1)
                if draw(st.booleans())}
        constraint = SearchConstraint.color_cap(caps, coloring)
    elif kind == "rainbow":
        caps = {c: 1 for c in coloring}
        constraint = SearchConstraint.rainbow(coloring)
    else:
        members = draw(st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=3),
            max_size=4))
        constraint = SearchConstraint.family_avoid(SetFamily(n, members))
    return n, coloring, caps, members, constraint


def set_passes(s, coloring, caps, members):
    """At most caps[c] indices of each capped class c, no member inside."""
    counts = Counter(coloring[i] for i in s)
    return all(counts[c] <= cap for c, cap in caps.items()) and \
        not any(set(mem) <= s for mem in members)


@settings(max_examples=200, deadline=None)
@given(set_conditions(), st.integers(1, 3))
def test_constraint_stream_matches_set_oracle(case, r):
    n, coloring, caps, members, constraint = case
    r = min(r, n)
    expected = []
    for parts in _candidate_stream(range(n), r, None, None):
        ok = all(set_passes(set(p), coloring, caps, members) for p in parts)
        assert constraint.admits(parts) == ok
        if ok:
            expected.append(parts)
    # the stream prunes with may_add alone
    assert list(_candidate_stream(range(n), r, constraint, None)) == expected


def itertools_candidates(allowed, r, constraint, max_part_size):
    """Every candidate built directly: label each allowed index with the
    part that takes it (0 for none) and keep the labellings with r
    nonempty parts in increasing minima, each within the size bound and
    admitted by the constraint, in Python tuple order."""
    out = []
    for labels in product(range(r + 1), repeat=len(allowed)):
        parts = tuple(tuple(i for i, b in zip(allowed, labels) if b == a)
                      for a in range(1, r + 1))
        if not all(parts) or \
                any(p[0] >= q[0] for p, q in zip(parts, parts[1:])):
            continue
        if max_part_size is not None and \
                any(len(p) > max_part_size for p in parts):
            continue
        if constraint is None or constraint.admits(parts):
            out.append(parts)
    return sorted(out)


@settings(max_examples=150, deadline=None)
@given(set_conditions(), st.integers(1, 4), st.data())
def test_stream_order_matches_itertools_oracle(case, r, data):
    # the stream's order is the sorted order of the sorted-parts tuples:
    # each part comes before its extensions and after every part with a
    # smaller least index
    _, coloring, _, _, constraint = case
    ground = range(len(coloring))
    allowed = sorted(data.draw(st.sets(st.sampled_from(ground), min_size=1)))
    max_part_size = data.draw(st.one_of(st.none(), st.integers(1, 3)))
    constraint = data.draw(st.sampled_from([None, constraint]))
    assert list(_candidate_stream(allowed, r, constraint, max_part_size)) \
        == itertools_candidates(allowed, r, constraint, max_part_size)


@settings(max_examples=200, deadline=None)
@given(set_conditions())
def test_mask_predicates_match_set_oracle(case):
    _, coloring, caps, members, constraint = case
    ground = range(len(coloring))
    for k in range(len(coloring) + 1):
        for sub in combinations(ground, k):
            s = set(sub)
            ok = set_passes(s, coloring, caps, members)
            assert constraint.admits_mask(bitmask(s)) == ok
            if not ok:
                continue
            for i in ground:
                if i not in s:
                    assert constraint.may_add(bitmask(s), i) == \
                        set_passes(s | {i}, coloring, caps, members)
