"""The pruned Tverberg search and its exact tests against oracles.

The search oracle streams every candidate of ``enumerate_candidates``,
filters it by ``allowed``, ``max_part_size`` and ``constraint.admits``,
and calls ``ExactWeightSolver.solve`` on each one.  Pruning removes
exactly the candidates whose parts' affine hulls miss each other or meet
in one point x at which some affinely independent part has a barycentric
coordinate <= 0, decided here from scratch in Fractions; every feasible
candidate stays, in order.
"""

from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fandist import feaslp, tverberg
from fandist.errors import SizeGateExceeded
from fandist.feaslp import (
    ExactWeightSolver,
    affine_hull,
    barycentric_map,
    integer_grid,
)
from fandist.galedual import PointConfig
from fandist.genpos import build_counterexample, verify_no_equidistribution
from fandist.kneser import SetFamily, bitmask
from fandist.tverberg import (
    SearchConstraint,
    _candidate_stream,
    enumerate_candidates,
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
def search_cases(draw):
    r = draw(st.sampled_from([2, 3, 4]))
    d = draw(st.integers(1, 3))
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
    # relabelings multiply the stream by up to r!, so only small cases
    canonical = draw(st.booleans()) if n <= 5 and r <= 3 else True
    return points, r, constraint, allowed, max_part_size, canonical


def oracle_candidates(n, r, canonical, constraint, allowed, max_part_size):
    pool = set(range(n)) if allowed is None else set(allowed)
    for parts in enumerate_candidates(n, r, canonical):
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


def pruned_by_oracle(points, parts):
    meet, x = hulls_meet(points, parts)
    if not meet:
        return True
    if x is None:
        return False
    return any(lam is not None and min(lam) <= 0
               for lam in (coordinates(points, p, x) for p in parts))


@settings(max_examples=150, deadline=None)
@given(search_cases())
def test_pruned_search_matches_oracle(case):
    points, r, constraint, allowed, max_part_size, canonical = case
    n, d = len(points), len(points[0])
    cfg = PointConfig(d, points)
    solver = ExactWeightSolver(points)
    oracle = list(oracle_candidates(n, r, canonical, constraint, allowed,
                                    max_part_size))
    witnesses = [solver.solve(parts) for parts in oracle]

    indices = range(n) if allowed is None else allowed
    plain = list(_candidate_stream(indices, r, canonical, constraint,
                                   max_part_size))
    assert plain == oracle
    pruned = list(_candidate_stream(indices, r, canonical, constraint,
                                    max_part_size, solver))
    assert pruned == [parts for parts in oracle
                      if not pruned_by_oracle(points, parts)]
    feasible = [parts for parts, w in zip(oracle, witnesses) if w is not None]
    assert [parts for parts in pruned if parts in feasible] == feasible

    first = next(((parts, w) for parts, w in zip(oracle, witnesses)
                  if w is not None), None)
    got = search_tuple(cfg, r, constraint, allowed=allowed,
                       canonical_only=canonical, max_part_size=max_part_size)
    if first is None:
        assert got is None
    else:
        assert got is not None
        assert (got.parts, got.witness) == first


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
    positive = tverberg._PartHull(grid, part).positive_at(X, lead)
    assert positive == (lam is None or min(lam) > 0)
    if bary is None:
        return
    L, D = bary
    assert D > 0
    assert [F(sum(a * b for a, b in zip(row, x)) + row[-1], D)
            for row in L] == lam


@st.composite
def point_sets(draw):
    d = draw(st.integers(1, 3))
    return d, draw(degenerate_points(draw(st.integers(1, 5)), d))


@settings(max_examples=80, deadline=None)
@given(point_sets())
def test_affine_hull_cuts_out_the_hull(case):
    d, points = case
    grid = integer_grid(points)
    part = list(range(max(1, len(points) - 1)))
    hull = affine_hull(grid, part)

    def rank(idx):
        return len(feaslp._eliminate_int([grid[i] + [1] for i in idx],
                                         d + 1))

    assert hull.codim == d + 1 - rank(part)
    for i in range(len(points)):
        on = all(sum(u * x for u, x in zip(row, grid[i])) == row[d]
                 for row in hull.rows)
        assert on == (rank(part + [i]) == rank(part))


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
@given(set_conditions(), st.integers(1, 3), st.booleans())
def test_constraint_stream_matches_set_oracle(case, r, canonical):
    n, coloring, caps, members, constraint = case
    r = min(r, n)
    canonical = canonical or n > 5
    expected = []
    for parts in enumerate_candidates(n, r, canonical):
        ok = all(set_passes(set(p), coloring, caps, members) for p in parts)
        assert constraint.admits(parts) == ok
        if ok:
            expected.append(parts)
    # the stream prunes with may_add alone
    assert list(_candidate_stream(range(n), r, canonical, constraint,
                                  None)) == expected


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
