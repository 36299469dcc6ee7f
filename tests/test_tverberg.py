import random
from fractions import Fraction as F
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fandist.errors import PreconditionError, SizeGateExceeded
from fandist.feaslp import (
    ExactWeightSolver,
    ProperWeightProblem,
    proper_weights,
)
from fandist.galedual import PointConfig
from fandist.kneser import ColoringCertificate, SetFamily, threshold_caps
from fandist.pipeline import rainbow, two_fans
from fandist.tverberg import (
    SearchConstraint,
    TverbergTuple,
    _candidate_stream,
    search_tuple,
    search_two_tuples,
)


def brute_force_exists(points, r, constraint=None):
    """Existence oracle: every assignment word, independent generator."""
    n = len(points)
    for word in product(range(r + 1), repeat=n):
        parts = [tuple(i for i in range(n) if word[i] == j + 1)
                 for j in range(r)]
        if any(not p for p in parts):
            continue
        if any(parts[j][0] >= parts[j + 1][0] for j in range(r - 1)):
            continue  # canonical representative only
        if constraint is not None and not constraint.admits(parts):
            continue
        if proper_weights(ProperWeightProblem(points, parts)) is not None:
            return True
    return False


def random_points(n, d, seed, bits=5):
    rng = random.Random(seed)
    top = (1 << bits) - 1
    return [tuple(F(rng.randint(-top, top), rng.randint(1, top))
                  for _ in range(d)) for _ in range(n)]


class TestEnumeration:
    def test_two_points_single_candidate(self):
        assert list(_candidate_stream(range(2), 2, None, None)) == \
            [((0,), (1,))]

    def test_three_points_six_canonical(self):
        got = list(_candidate_stream(range(3), 2, None, None))
        assert got == [((0,), (1,)), ((0,), (1, 2)), ((0,), (2,)),
                       ((0, 1), (2,)), ((0, 2), (1,)), ((1,), (2,))]

    def test_first_candidate_minimal_parts(self):
        assert next(_candidate_stream(range(5), 3, None, None)) == \
            ((0,), (1,), (2,))

    def test_parts_disjoint_nonempty(self):
        for cand in _candidate_stream(range(5), 3, None, None):
            seen = set()
            for part in cand:
                assert part
                assert not seen.intersection(part)
                seen.update(part)

    def test_stream_strictly_increasing(self):
        prev = None
        for cand in _candidate_stream(range(5), 2, None, None):
            if prev is not None:
                assert cand > prev, (prev, cand)
            prev = cand


class TestSearchTuple:
    def test_collinear_five(self):
        cfg = PointConfig(1, [[1], [2], [3], [4], [5]])
        tup = search_tuple(cfg, 3)
        assert tup is not None
        tup.validate(cfg)
        # first canonical feasible candidate: {1,4},{2,5},{3} one-based
        assert tup.parts == ((0, 3), (1, 4), (2,))
        assert tup.witness.common_point == (F(3),)

    def test_four_generic_points_unique_radon(self):
        pts = random_points(4, 2, seed=12)
        cfg = PointConfig(2, pts)
        tup = search_tuple(cfg, 2)
        assert tup is not None
        assert brute_force_exists(pts, 2)

    def test_three_points_r2_none(self):
        pts = random_points(3, 2, seed=1)
        assert search_tuple(PointConfig(2, pts), 2) is None
        assert not brute_force_exists(pts, 2)

    def test_oracle_equivalence_sample(self):
        rng = random.Random(99)
        for trial in range(12):
            r = rng.choice([2, 3])
            n = rng.randint(r + 1, 7)
            d = rng.randint(1, 2)
            pts = random_points(n, d, 500 + trial)
            cfg = PointConfig(d, pts)
            got = search_tuple(cfg, r) is not None
            assert got == brute_force_exists(pts, r)

    def test_tverberg_number_sanity(self):
        # one point below (r-1)(d+1)+1 on generic configs: none expected
        for r, d in ((2, 1), (2, 2), (3, 1), (3, 2)):
            n = (r - 1) * (d + 1)
            misses = 0
            for seed in range(50):
                pts = random_points(n, d, 1000 + 100 * r + 10 * d + seed)
                if search_tuple(PointConfig(d, pts), r) is None:
                    misses += 1
            assert misses == 50, (r, d, misses)

    def test_needs_enough_points(self):
        with pytest.raises(PreconditionError):
            search_tuple(PointConfig(1, [[1], [2], [3]]), 4)

    def test_exhausted_search(self):
        # three points on a line hold no proper 3-tuple
        cfg = PointConfig(1, [[1], [2], [3]])
        assert search_tuple(cfg, 3) is None

    def test_size_gate_distinct_from_none(self):
        cfg = PointConfig(2, random_points(6, 2, seed=8))
        with pytest.raises(SizeGateExceeded):
            search_tuple(cfg, 3, lp_gate=3)

    def test_allowed_restriction(self):
        cfg = PointConfig(1, [[1], [2], [3], [4], [5]])
        tup = search_tuple(cfg, 3, allowed=[0, 1, 2, 3])
        assert tup is None  # needs 3 disjoint hulls meeting among 4 points
        tup2 = search_tuple(cfg, 2, allowed=[0, 1, 2])
        assert tup2 is not None
        assert all(i <= 2 for p in tup2.parts for i in p)

    def test_family_constraint_filters(self):
        cfg = PointConfig(1, [[1], [2], [3], [4], [5]])
        fam = SetFamily(5, [[2]])  # index 2 may not sit inside any part
        tup = search_tuple(cfg, 3, SearchConstraint.family_avoid(fam))
        if tup is not None:
            assert all(2 not in p for p in tup.parts)

    def test_json_round_trip(self):
        cfg = PointConfig(1, [[1], [2], [3], [4], [5]])
        tup = search_tuple(cfg, 3)
        assert TverbergTuple.from_json(tup.to_json()) == tup


class TestColoredSearch:
    def test_collinear_rainbow(self):
        cfg = PointConfig(1, [[1], [2], [3], [4]], coloring=[0, 1, 0, 1])
        tup = search_tuple(cfg, 2, SearchConstraint.rainbow(cfg.coloring))
        assert tup is not None
        for part in tup.parts:
            for k in (0, 1):
                assert sum(1 for i in part if cfg.coloring[i] == k) <= 1

    def test_small_class_rejected(self):
        # rainbow needs r >= 3 for real fans; class 1 holds 2 < r points
        cfg = PointConfig(1, [[1], [2], [3], [4], [5]],
                          coloring=[0, 0, 0, 1, 1])
        with pytest.raises(PreconditionError,
                           match="every class needs at least r=3 points"):
            rainbow(cfg, 3)

    def test_rainbow_agrees_with_oracle(self):
        rng = random.Random(31)
        for trial in range(8):
            n, d, r = 6, 1, 2
            pts = random_points(n, d, 700 + trial)
            coloring = [i % 3 for i in range(n)]
            rng.shuffle(coloring)
            cfg = PointConfig(d, pts, coloring=coloring)
            if any(coloring.count(k) < r for k in range(3)):
                continue
            con = SearchConstraint.rainbow(coloring)
            got = search_tuple(cfg, r, con) is not None
            assert got == brute_force_exists(pts, r, con)


class TestTwoTupleSearch:
    def test_whole_ground_set_member_is_vacuous(self):
        cfg = PointConfig(1, [[i] for i in range(1, 10)])
        fam = SetFamily(9, [list(range(9))])
        pair = search_two_tuples(cfg, 3, SearchConstraint.family_avoid(fam))
        assert pair is not None
        for t in pair:
            t.validate(cfg)

    def test_singleton_member_forces_leftover(self):
        cfg = PointConfig(1, [[i] for i in range(1, 10)])
        fam = SetFamily(9, [[4]])
        pair = search_two_tuples(cfg, 3, SearchConstraint.family_avoid(fam))
        assert pair is not None
        s1, s2 = (set(t.support()) for t in pair)
        assert 4 not in (s1 & s2)

    def test_collinear_nine_two_subsets(self):
        cfg = PointConfig(1, [[i] for i in range(1, 10)])
        fam = SetFamily(9, [[0, 1], [0, 2], [1, 2]])
        pair = search_two_tuples(cfg, 3, SearchConstraint.family_avoid(fam))
        if pair is not None:
            for i in pair[0].parts:
                for j in pair[1].parts:
                    cell = set(i) & set(j)
                    for m in fam.members:
                        assert not set(m) <= cell

    def test_digit_condition_enforced(self):
        # the search checks no hypothesis; its pierce-mode driver refuses
        # a certificate whose class count fails the digit condition
        cfg = PointConfig(1, [[i] for i in range(1, 10)])
        fam = SetFamily(9, [[0]])
        cert = ColoringCertificate(fam, 9, (0,))  # m = 1 is not eligible
        with pytest.raises(PreconditionError,
                           match=r"m=1 fails the digit condition"):
            two_fans(cfg, 3, mode="pierce", family=fam, certificate=cert)

    def test_caps_mode_disjoint_supports(self):
        cfg = PointConfig(1, [[i] for i in range(1, 12)])
        check = SearchConstraint.color_cap({0: 0, 1: 0}, [0] * 6 + [1] * 5)
        pair = search_two_tuples(cfg, 3, check)
        assert pair is not None
        assert not set(pair[0].support()) & set(pair[1].support())
        # reproducible
        again = search_two_tuples(cfg, 3, check)
        assert again == pair

    def test_caps_mode_nonzero_caps(self):
        # class 0 has 9 points, so threshold_caps(.., 9) caps it at 1
        cfg = PointConfig(1, [[i] for i in range(1, 11)])
        coloring = [1] + [0] * 9
        caps = threshold_caps([9, 1], 9)
        assert caps == {0: 1, 1: 0}
        pair = search_two_tuples(
            cfg, 3, SearchConstraint.color_cap(caps, coloring))
        assert pair is not None
        for i in pair[0].parts:
            for j in pair[1].parts:
                cell = set(i) & set(j)
                for c, cap in caps.items():
                    assert sum(1 for p in cell if coloring[p] == c) <= cap


# -- the joined two-tuple search against collect-all-then-scan ---------------

def collect_then_scan(config, r, cell_ok):
    """Oracle two-tuple search over a rational config, without gates.

    Solves every candidate of the bounded canonical stream, unpruned (no
    solver, so no hull or point pruning is shared with the search under
    test), keeps every proper tuple, then scans all ordered pairs (I, J),
    J = I included, in stream order for the first whose cells I_a ∩ J_b
    all pass ``cell_ok``.
    """
    solver = ExactWeightSolver(config.points)
    collected = []
    for parts in _candidate_stream(range(config.n), r, None, config.dim + 1):
        witness = solver.solve(parts)
        if witness is not None:
            collected.append(TverbergTuple(r, parts, witness))
    for first in collected:
        for second in collected:
            if all(cell_ok(set(a) & set(b))
                   for a in first.parts for b in second.parts):
                return first, second
    return None


def counted_solves(run):
    """(run(), number of ExactWeightSolver.solve calls it made)."""
    with mock.patch.object(ExactWeightSolver, "solve", autospec=True,
                           side_effect=ExactWeightSolver.solve) as solve:
        out = run()
    return out, solve.call_count


@st.composite
def two_tuple_cases(draw):
    """(config, cell constraint, set-based cell test) for r = 3."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(3 + 2 * d, 9 - d))
    pts = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d,
                                 max_size=d), min_size=n, max_size=n))
    cfg = PointConfig(d, [[F(x) for x in p] for p in pts])
    if draw(st.booleans()):
        coloring = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        coloring[draw(st.integers(0, n - 1))] = 1  # m = 2 classes
        caps = {c: draw(st.integers(0, 3)) for c in (0, 1)}

        def cell_ok(cell):
            return all(sum(1 for i in cell if coloring[i] == c) <= caps[c]
                       for c in (0, 1))
        return cfg, SearchConstraint.color_cap(caps, coloring), cell_ok
    members = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=3),
        min_size=1, max_size=3))
    fam = SetFamily(n, members)

    def cell_ok(cell):
        return not any(set(mm) <= cell for mm in fam.members)
    return cfg, SearchConstraint.family_avoid(fam), cell_ok


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(two_tuple_cases())
def test_join_matches_collect_then_scan(case):
    cfg, check, cell_ok = case
    want, oracle_solves = counted_solves(
        lambda: collect_then_scan(cfg, 3, cell_ok))
    got, solves = counted_solves(
        lambda: search_two_tuples(cfg, 3, check))
    assert got == want
    assert solves <= oracle_solves


class TestTwoTupleJoin:
    LINE = [[i] for i in range(1, 11)]

    def _line_search(self, n, **gates):
        cfg = PointConfig(1, self.LINE[:n])
        coloring = [0] * (n - n // 2) + [1] * (n // 2)
        return search_two_tuples(
            cfg, 3, SearchConstraint.color_cap({0: 0, 1: 0}, coloring),
            **gates)

    def test_pair_gate_counts_cell_passing_candidates(self):
        # 1 second-stream candidate passes the cell condition up to the
        # answer; the first tuple already has a partner
        with pytest.raises(SizeGateExceeded):
            self._line_search(10, pair_gate=0)
        got = self._line_search(10, pair_gate=1)
        assert got == collect_then_scan(PointConfig(1, self.LINE), 3,
                                        lambda cell: not cell)
        assert tuple(t.parts for t in got) == (
            ((0, 3), (1, 4), (2,)), ((5, 8), (6, 9), (7,)))

    def test_pair_gate_apart_from_first_tuples_joined(self):
        # one first tuple is joined, but 3 second-stream candidates pass
        # the cell condition up to the answer: a gate that counted first
        # tuples would let pair_gate=2 through.  The points are planar:
        # on a line every emitted candidate is proper, so the first
        # cell-passing one completes the pair
        cfg = PointConfig(2, [[F(x), F(y)] for x, y in (
            (6, 4), (6, 7), (0, 8), (0, 4), (6, 9), (5, 8), (6, 0))])
        coloring = [0, 0, 0, 1, 1, 1, 1]

        def search(**gates):
            return search_two_tuples(
                cfg, 3, SearchConstraint.color_cap({0: 1, 1: 1}, coloring),
                **gates)
        with pytest.raises(SizeGateExceeded):
            search(pair_gate=2)
        got = search(pair_gate=3)
        assert tuple(t.parts for t in got) == (
            ((0, 2, 4), (1, 3), (5, 6)), ((0, 5), (1, 2), (3, 4, 6)))
        assert search(tuple_gate=1) == got
        assert got == collect_then_scan(
            cfg, 3, lambda cell: all(
                sum(coloring[i] == c for i in cell) <= 1 for c in (0, 1)))

    def test_tuple_gate_counts_feasible_first_tuples(self):
        # nine points on a line admit no pair; each of the 756 proper
        # tuples is joined with a second stream that passes nothing
        assert self._line_search(9) is None
        assert self._line_search(9, tuple_gate=756, pair_gate=0) is None
        with pytest.raises(SizeGateExceeded):
            self._line_search(9, tuple_gate=1)
        with pytest.raises(SizeGateExceeded):
            self._line_search(9, tuple_gate=755)

    def test_cell_condition_grows_one_cell_per_index(self):
        # J's part (1, 5) holds two class-0 indices, but they sit in
        # different cells: 1 in I's part (1, 4), 5 in no part of I
        cfg = PointConfig(1, self.LINE)
        coloring = [1] + [0] * 9

        def cell_ok(cell):
            return sum(1 for i in cell if coloring[i] == 0) <= 1 and \
                not any(coloring[i] == 1 for i in cell)
        got = search_two_tuples(
            cfg, 3, SearchConstraint.color_cap({0: 1, 1: 0}, coloring))
        assert got == collect_then_scan(cfg, 3, cell_ok)
        assert tuple(t.parts for t in got) == (
            ((0, 3), (1, 4), (2,)), ((1, 5), (2, 4), (3,)))
