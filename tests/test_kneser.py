import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fandist.errors import PreconditionError, SizeGateExceeded
from fandist.kneser import (
    ColoringCertificate,
    SetFamily,
    has_r_disjoint,
    m_eligible,
    threshold_caps,
    verify_certificate,
)


def disjoint_oracle(members, r):
    """Full enumeration over r-subsets of members."""
    ms = [frozenset(m) for m in members]
    for combo in combinations(range(len(ms)), r):
        union = set()
        total = 0
        for i in combo:
            union |= ms[i]
            total += len(ms[i])
        if len(union) == total:
            return True
    return False


class TestSetFamily:
    def test_canonicalization(self):
        fam = SetFamily(5, [[3, 1], [1, 3], [0], [2, 4]])
        assert fam.members == ((0,), (1, 3), (2, 4))

    def test_empty_member_rejected(self):
        with pytest.raises(PreconditionError):
            SetFamily(3, [[]])

    def test_json_round_trip(self):
        fam = SetFamily(4, [[0, 1], [2], [1, 3]])
        assert SetFamily.from_json(fam.to_json()) == fam


class TestHasRDisjoint:
    def test_singletons(self):
        w = has_r_disjoint([[0], [1], [2]], 3)
        assert w == ((0,), (1,), (2,))

    def test_two_subsets_of_three_intersect(self):
        fam = list(combinations(range(3), 2))
        assert has_r_disjoint(fam, 2) is None

    def test_three_subsets_of_ten(self):
        fam = list(combinations(range(10), 3))
        assert has_r_disjoint(fam, 4) is None  # needs 12 points
        w = has_r_disjoint(fam, 3)
        assert w is not None
        assert len(set().union(*w)) == 9

    def test_agrees_with_enumeration(self):
        rng = random.Random(13)
        for trial in range(30):
            n = rng.randint(4, 8)
            k = rng.randint(1, 3)
            count = rng.randint(1, 12)
            members = [sorted(rng.sample(range(n),
                                         rng.randint(1, min(k, n))))
                       for _ in range(count)]
            r = rng.randint(2, 3)
            got = has_r_disjoint(members, r) is not None
            assert got == disjoint_oracle(members, r)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4),
                    min_size=1, max_size=8), st.integers(2, 4))
    def test_counting_bound_agrees_with_enumeration(self, members, r):
        # tight families, where the members still needed fill exactly the
        # unused elements, are common at these sizes
        got = has_r_disjoint(members, r)
        assert (got is not None) == disjoint_oracle(members, r)
        if got is not None:
            assert len(got) == r
            assert all(set(m) in map(set, members) for m in got)
            assert len(set().union(*got)) == sum(map(len, got))

    def test_pierce_certificate_node_pin(self):
        # the one-class certificate of 3-subsets of 10 points for r = 4:
        # four disjoint members need 12 points, so the counting bound
        # decides it at the root, with no node (142,037 without the bound)
        cert = ColoringCertificate(SetFamily.all_k_subsets(10, 3), 4,
                                   (0,) * 120)
        assert verify_certificate(cert, gate=0) == (True, None)
        # members through one point hold no 3 disjoint ones: 196 nodes
        star = [m for k in (2, 3) for m in combinations(range(8), k)
                if 0 in m]
        assert has_r_disjoint(star, 3, gate=196) is None
        with pytest.raises(SizeGateExceeded):
            has_r_disjoint(star, 3, gate=195)


class TestCertificates:
    def test_violating_class(self):
        fam = SetFamily(3, [[0], [1]])
        cert = ColoringCertificate(fam, 2, (0, 0))
        ok, witness = verify_certificate(cert)
        assert not ok
        cls, pair = witness
        assert cls == 0 and pair == ((0,), (1,))

    def test_split_is_valid(self):
        fam = SetFamily(3, [[0], [1]])
        cert = ColoringCertificate(fam, 2, (0, 1))
        assert verify_certificate(cert) == (True, None)

    def test_empty_family_valid(self):
        cert = ColoringCertificate(SetFamily(3, []), 2, ())
        assert verify_certificate(cert)[0]

    def test_threshold_classes_always_valid(self):
        # caps-respecting parts cannot assemble r disjoint over-threshold
        # sets: pigeonhole on any random coloring
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(4, 9)
            m = rng.randint(1, 3)
            coloring = [rng.randrange(m) for _ in range(n)]
            r = rng.randint(2, 4)
            sizes = [coloring.count(k) for k in range(m)]
            caps = threshold_caps(sizes, r)
            # build the class-k threshold family explicitly at small n
            for k in range(m):
                idx = [i for i in range(n) if coloring[i] == k]
                members = []
                for size in range(caps[k] + 1, len(idx) + 1):
                    members.extend(combinations(idx, size))
                if members:
                    assert has_r_disjoint(members, r) is None

    def test_partial_assignment_rejected(self):
        fam = SetFamily(3, [[0], [1]])
        with pytest.raises(PreconditionError):
            ColoringCertificate(fam, 2, (0,))


class TestThresholdCaps:
    def test_examples(self):
        assert threshold_caps([10], 4)[0] == 2
        assert threshold_caps([8], 4)[0] == 2
        assert threshold_caps([1], 3)[0] == 0

    def test_cap_semantics(self):
        # |I| <= cap iff I avoids every set with more than size/r points
        for size in range(1, 12):
            for r in (2, 3, 4):
                cap = threshold_caps([size], r)[0]
                assert cap * r <= size
                assert (cap + 1) * r > size


class TestMEligible:
    def test_table(self):
        assert m_eligible(2, 3) == (True, [2])
        assert m_eligible(8, 3) == (True, [2, 2])
        assert m_eligible(1, 3) == (False, [1])
        assert m_eligible(3, 3)[0] is False
        assert m_eligible(2, 5) == (True, [4])

    def test_requires_odd_prime(self):
        with pytest.raises(PreconditionError):
            m_eligible(2, 4)
        with pytest.raises(PreconditionError):
            m_eligible(2, 9)

    def test_generator_family(self):
        # m = 2a(r^l1 + ... + r^lk), odd a <= r-1, distinct l_i: eligible
        for r in (3, 5, 7):
            for a in range(1, r, 2):
                for k in (1, 2, 3):
                    for ells in combinations(range(5), k):
                        m = 2 * a * sum(r ** e for e in ells)
                        ok, digits = m_eligible(m, r)
                        assert ok, (r, a, ells, digits)

    def test_repunit_form(self):
        # m = 2a(r^(l+1) - 1)/(r - 1)
        for r in (3, 5):
            for a in range(1, r, 2):
                for ell in range(0, 4):
                    m = 2 * a * (r ** (ell + 1) - 1) // (r - 1)
                    assert m_eligible(m, r)[0]
