import hashlib
import importlib
import itertools
import json
import pkgutil
import time
from unittest import mock

import pytest

import fandist
from fandist import feaslp, genpos, pipeline, tverberg
from fandist.errors import (
    GuaranteeViolation,
    NotAffinelySpanning,
    PreconditionError,
    SizeGateExceeded,
    VerificationBug,
)
from fandist.exactnum import ExactMatrix
from fandist.fans import ComplexFan, RealFan, slice_project, verify_report
from fandist.feaslp import ExactWeightSolver
from fandist.galedual import PointConfig
from fandist.genpos import (
    build_counterexample,
    is_typical,
    least_ell,
    random_config,
    verify_no_equidistribution,
)
from fandist.kneser import ColoringCertificate, SetFamily
from fandist.pipeline import (
    bounds_experiment,
    canonical_json,
    equidistribute,
    pierce,
    rainbow,
    two_fans,
)


class TestEquidistribute:
    def test_verified_small_run(self):
        X = random_config(7, 5, seed=1)
        res = equidistribute(X, 3)
        assert res is not None and res.report.passes
        assert res.d == 1 and res.guaranteed
        # part/cell correspondence is asserted inside; robustness recorded
        assert res.robustness == sum(len(p) for p in res.tuple_.parts)

    def test_slice_checked_against_tuple_labels(self, monkeypatch):
        """A slice with its half-flats rotated passes the mode report but
        puts every part on the wrong half-flat, so the run must fail."""
        X = random_config(7, 5, seed=1)
        rotated = []

        def rotate(fan):
            s = slice_project(fan)
            rotated.append(RealFan(s.r, s.dim, s.normals[1:] + s.normals[:1],
                                   s.offsets[1:] + s.offsets[:1]))
            return rotated[-1]

        reports = []

        def report(*args, **kwargs):
            reports.append(args)
            return verify_report(*args, **kwargs)

        monkeypatch.setattr(pipeline, "slice_project", rotate)
        monkeypatch.setattr(pipeline, "verify_report", report)
        with pytest.raises(VerificationBug, match="classifies .*, expected"):
            equidistribute(X, 3)
        assert reports == []  # it fails before any report is built
        assert verify_report(rotated[0], X, "equidistribute").passes

    def test_warns_below_bound(self):
        X = random_config(5, 3, seed=2)
        res = equidistribute(X, 3)
        if res is not None:
            assert any("below the guarantee" in w for w in res.warnings)

    def test_singleton_class_sits_on_center(self):
        # n=9 meets the d=1, m=2 bound; the singleton class has cap 0
        X = random_config(9, 7, seed=3, coloring=[0] * 8 + [1])
        res = equidistribute(X, 3)
        assert res is not None
        single = X.coloring.index(1)
        assert all(single not in p for p in res.tuple_.parts)
        assert res.affine_fan.classify(X.points[single]).kind == "center"

    def test_nonprime_power_never_guaranteed(self):
        from fandist.kneser import prime_base
        assert all(prime_base(r) is not None for r in (2, 9, 8))
        assert prime_base(6) is None and prime_base(12) is None
        # a nonprime r run stays best-effort: None is a normal outcome
        X = random_config(6, 4, seed=4)
        res = equidistribute(X, 6, lp_gate=50_000)
        assert res is None or (not res.guaranteed and any(
            "prime power" in w for w in res.warnings))

    def test_json_deterministic_and_complete(self):
        X = random_config(7, 5, seed=5)
        a = equidistribute(X, 3)
        b = equidistribute(X, 3)
        assert canonical_json(a.to_json()) == canonical_json(b.to_json())
        blob = json.loads(canonical_json(a.to_json()))
        assert blob["parameters"]["d"] == 1
        assert "timing" not in blob


def count_classifications(monkeypatch):
    """A list that counts every RealFan and ComplexFan classification:
    ``classify`` and the fan checks on cleared points all end in
    ``_classify_int``."""
    calls = []
    for cls in (RealFan, ComplexFan):
        def counted(self, X, D, classify=cls._classify_int):
            calls.append(self)
            return classify(self, X, D)
        monkeypatch.setattr(cls, "_classify_int", counted)
    return calls


class TestClassifyOnce:
    def test_desk_pass_classifies_each_slice_once(self, monkeypatch):
        """The benchmark's desk ops: each linear fan classifies the n + 1
        lifted points and each slice the n points of X, once, for the
        tuple check and the report together: 124 + 112."""
        calls = count_classifications(monkeypatch)
        for s in range(4):
            fam = SetFamily.all_k_subsets(10, 3)
            cert = ColoringCertificate(fam, 4, tuple(0 for _ in fam.members))
            assert equidistribute(random_config(10, 8, seed=4000 + s), 4)
            assert rainbow(random_config(8, 6, seed=5000 + s,
                                         coloring=[0] * 4 + [1] * 4), 4)
            assert pierce(random_config(10, 8, seed=600 + s), fam, cert, 4)
        assert len(calls) == 236

    @pytest.mark.parametrize("field", ["rational", 4])
    def test_report_takes_the_checked_labels_once(self, monkeypatch, field):
        X = random_config(7, 5, field=field, seed=1) if field == "rational" \
            else random_config(6, 4, field=field, seed=21)
        res = equidistribute(X, 3 if field == "rational" else 2)
        calls = count_classifications(monkeypatch)
        # a later report on the same objects classifies afresh
        fresh = verify_report(res.affine_fan, X, res.mode)
        assert calls == [res.affine_fan] * X.n
        assert fresh == res.report

    def test_two_fans_classify_each_slice_once(self, monkeypatch):
        X = random_config(10, 8, seed=1000, coloring=[0] * 5 + [1] * 5)
        calls = count_classifications(monkeypatch)
        res = two_fans(X, 3)
        # two linear fans on the 11 lifted points, two slices on X
        assert len(calls) == 2 * (X.n + 1) + 2 * X.n
        assert set(calls) >= set(res.affine_fans)


class TestPierce:
    def test_empty_family_reduces_to_distribution(self):
        X = random_config(7, 5, seed=6)
        fam = SetFamily(7, [])
        cert = ColoringCertificate(fam, 3, ())
        res = pierce(X, fam, cert, 3)
        assert res is not None and res.report.passes

    def test_singleton_member_forces_center(self):
        X = random_config(7, 5, seed=7)
        fam = SetFamily(7, [[2]])
        cert = ColoringCertificate(fam, 3, (0,))
        res = pierce(X, fam, cert, 3)
        assert res is not None
        assert res.affine_fan.classify(X.points[2]).kind == "center"

    def test_invalid_certificate_rejected(self):
        X = random_config(7, 5, seed=8)
        fam = SetFamily(7, [[0], [1], [2]])
        bad = ColoringCertificate(fam, 3, (0, 0, 0))
        with pytest.raises(PreconditionError):
            pierce(X, fam, bad, 3)


class TestRainbow:
    def test_small_guaranteed_run(self):
        X = random_config(8, 6, seed=9, coloring=[0] * 4 + [1] * 4)
        res = rainbow(X, 4)
        assert res is not None and res.report.passes
        for j in range(4):
            for k in range(2):
                assert res.report.cell_class_counts[f"({j},{k})"] <= 1

    def test_small_class_rejected(self):
        X = random_config(8, 6, seed=10, coloring=[0] * 6 + [1] * 2)
        with pytest.raises(PreconditionError):
            rainbow(X, 4)


class TestTwoFans:
    def test_gate_trips_early_when_second_streams_emit_nothing(self):
        # every cell cap is 0 (5 // 9 and 6 // 9), so the second streams
        # emit nothing, but their flat tests count against the gate: the
        # ungated search runs for minutes and finds no pair
        X = random_config(11, 8, seed=1, coloring=[0] * 5 + [1] * 6)
        start = time.process_time()
        with pytest.raises(SizeGateExceeded,
                           match="^feasibility-check gate 1000 exceeded$"):
            two_fans(X, 3, lp_gate=1000)
        assert time.process_time() - start < 1

    def test_m_eligibility_hard(self):
        X = random_config(9, 7, seed=11, coloring=[0] * 9)  # m=1 at r=3
        with pytest.raises(PreconditionError):
            two_fans(X, 3)

    def test_pierce_mode_pair(self):
        # family over the input indices; m=2 certificate for r^2 = 9
        X = random_config(9, 7, seed=12)
        fam = SetFamily(9, [[0, 1, 2, 3, 4, 5, 6, 7, 8], [4]])
        cert = ColoringCertificate(fam, 9, (0, 1))
        res = two_fans(X, 3, certificate=cert)
        assert res.report.passes
        assert tuple(t.parts for t in res.tuples) == (
            ((0, 2), (1,), (3, 6)), ((0, 2), (1,), (3, 6)))
        # the singleton member never sits inside any open cell
        s1 = set(res.tuples[0].support())
        s2 = set(res.tuples[1].support())
        assert 4 not in (s1 & s2)

    def test_sound_pair_on_line_duals(self):
        X = random_config(13, 11, seed=1, coloring=[0] * 7 + [1] * 6)
        res = two_fans(X, 3)
        assert res.report.passes
        assert tuple(t.parts for t in res.tuples) == (
            ((0, 1), (2,), (3, 4)), ((5,), (6, 10), (7, 12)))
        # r^2-caps are 0 for both classes: supports must be disjoint
        s1 = set(res.tuples[0].support())
        s2 = set(res.tuples[1].support())
        assert not s1 & s2


class TestComplexVariants:
    def test_complex_pierce_smoke(self):
        # singleton member over Q(i): the marked point lands on the center
        X = random_config(6, 4, field=4, seed=21, coloring=[0] * 6)
        fam = SetFamily(6, [[3]])
        cert = ColoringCertificate(fam, 2, (0,))
        res = pierce(X, fam, cert, 2)
        assert res is not None and res.report.passes
        assert res.affine_fan.classify(X.points[3]).kind == "center"

    def test_conductor_extension_for_omega(self):
        # Gaussian-rational input with r=3: coordinates embed into
        # Q(zeta_12) so the root of unity exists; verification still runs
        # against the (embedded) input coordinates exactly
        X = random_config(9, 7, field=4, seed=77, coloring=[0] * 9)
        res = equidistribute(X, 3)
        assert res is not None and res.report.passes
        assert res.affine_fan.N == 12
        assert any("zeta_12" in w for w in res.warnings)

    def test_embedding_keeps_the_verified_span(self, monkeypatch):
        # Q(zeta_3) at r = 2 embeds into Q(zeta_12); the embedding keeps
        # every rank, so the verified span is not reduced again
        X = random_config(6, 4, field=3, seed=600, coloring=[0] * 6)
        calls = []
        rank = ExactMatrix.rank

        def counting(self):
            calls.append(self)
            return rank(self)

        monkeypatch.setattr(ExactMatrix, "rank", counting)
        X12, _, _, warnings = pipeline._prepare(X, 2)
        assert X12.conductor == 12 and warnings
        assert calls == []
        fresh = PointConfig(X.dim, X.points, 3).to_conductor(12)
        assert fresh._spanning is None
        assert fresh.affinely_spanning() and len(calls) == 1

    @pytest.mark.parametrize("r", [0, -1, 1])
    @pytest.mark.parametrize("driver", [equidistribute, rainbow, two_fans])
    def test_complex_r_below_two_is_precondition(self, driver, r):
        # complex fans need r >= 2, checked before the omega_r embedding
        X = random_config(6, 4, field=4, seed=7300,
                          coloring=[0, 0, 0, 1, 1, 1])
        with pytest.raises(PreconditionError, match="^r must be at least 2$"):
            driver(X, r)

    def test_complex_rainbow(self):
        # r=2 (r+1 prime), d=1: three classes of two in C^4; n=6 meets
        # the proof-side bound r(2d+1)
        X = random_config(6, 4, field=4, seed=22,
                          coloring=[0, 0, 1, 1, 2, 2])
        res = rainbow(X, 2)
        assert res is not None and res.report.passes
        for j in range(2):
            for k in range(3):
                assert res.report.cell_class_counts[f"({j},{k})"] <= 1


class TestBounds:
    def test_single_row_smoke(self):
        rows = bounds_experiment(3, 2, [7], [0], lp_gate=200_000,
                                 max_ell_extra=0)
        row = rows[0]
        assert row["d"] == 7 and row["n_lower"] == 9
        assert row["lower_successes"] == row["lower_runs"] == 1
        # the minimal ell does not certify; see the sharpness tests
        assert row["certified_ell"] in (None, 3)

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("d_values", [[], [0], [7]])
    def test_small_r_is_rejected_up_front(self, r, d_values):
        with pytest.raises(PreconditionError,
                           match="bounds experiment needs r >= 3"):
            bounds_experiment(r, 2, d_values, [0])

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_rows_start_from_the_least_accepted_ell(self, r, monkeypatch):
        # build_counterexample stops once it accepts its parameters; the
        # least ell it accepts is least_ell(r, k) for every k in 0..r-1,
        # and each row starts there, its t ranging over 0..r-3
        class Accepted(Exception):
            pass

        def accepted(*args, **kwargs):
            raise Accepted

        def least_accepted(k):
            for ell in itertools.count():
                try:
                    build_counterexample(r, 2, 1, k, ell)
                except PreconditionError as exc:
                    assert str(exc) == "need ell > 2 + k/(r-1)"
                except Accepted:
                    return ell

        monkeypatch.setattr(genpos, "random_config", accepted)
        assert [least_accepted(k) for k in range(r)] == \
            [least_ell(r, k) for k in range(r)]
        started = []

        def build(r, m, s, t, ell, seed):
            started.append((t, ell))
            return build_counterexample(r, m, s, t, ell, seed)

        monkeypatch.setattr(pipeline, "build_counterexample", build)
        monkeypatch.setattr(pipeline, "equidistribute", lambda *a, **kw: None)
        c = (r - 1) * (2 + 1)
        for t in range(r - 2):
            with pytest.raises(Accepted):
                bounds_experiment(r, 2, [c + r - 2 + t], [0])
        assert started == [(t, least_accepted(t)) for t in range(r - 2)]

    def test_d_below_one_step_has_no_decomposition(self):
        # r = 5, m = 2: c = (r-1)(m+1) = 12 and d - c = 1 < r - 2, so s = 0
        assert bounds_experiment(5, 2, [13], [0]) == [
            {"d": 13, "skipped": "no valid (s, t) decomposition"}]

    def test_d_at_most_c_is_skipped(self):
        # r = 3, m = 2: c = (r-1)(m+1) = 6
        assert bounds_experiment(3, 2, [5, 6], [0]) == [
            {"d": 5, "skipped": "d must exceed (r-1)(m+1)"},
            {"d": 6, "skipped": "d must exceed (r-1)(m+1)"}]

    def test_gated_certification_leaves_the_row_open(self):
        # 50 checks decide the lower-bound run but not the ell = 4 instance
        with pytest.raises(SizeGateExceeded):
            verify_no_equidistribution(build_counterexample(3, 2, 1, 0, 4),
                                       lp_gate=50)
        assert bounds_experiment(3, 2, [7], [0], lp_gate=50) == [
            {"d": 7, "s": 1, "t": 0, "n_lower": 9, "lower_successes": 1,
             "lower_runs": 1, "upper_points": None, "certified_ell": None}]


@pytest.mark.parametrize("run", [equidistribute, two_fans])
def test_driver_refuses_non_spanning_and_d_zero_inputs(run):
    line = PointConfig(2, [[0, 0], [1, 1], [2, 2], [3, 3]])
    with pytest.raises(NotAffinelySpanning):
        run(line, 3)
    with pytest.raises(PreconditionError, match="need n >= D \\+ 2"):
        run(random_config(4, 3, seed=1), 3)


# -- characterisation of the drivers -----------------------------------------
#
# Each case pins a driver's whole outcome on a small input: the exact
# warnings tuple, `guaranteed` and the SHA-256 of the canonical result
# JSON, or None, or the exception class and message.  Together the cases
# reach every warning and precondition branch of the single-fan drivers.

def _family(n, members, r, colors):
    fam = SetFamily(n, members)
    return fam, ColoringCertificate(fam, r, tuple(colors))


def _pierce(X, members, r, colors, **kw):
    fam, cert = _family(X.n, members, r, colors)
    return pierce(X, fam, cert, r, **kw)


DRIVER_CASES = {
    "equi-real": lambda: equidistribute(random_config(7, 5, seed=1), 3),
    "equi-real-below": lambda: equidistribute(random_config(6, 4, seed=2), 3),
    "equi-real-below-none": lambda: equidistribute(
        random_config(5, 3, seed=2), 3),
    "equi-not-prime-power": lambda: equidistribute(
        random_config(12, 10, seed=4), 6, lp_gate=200_000),
    "equi-real-r2": lambda: equidistribute(random_config(7, 5, seed=1), 2),
    "equi-complex": lambda: equidistribute(
        random_config(6, 4, field=4, seed=21), 2),
    "equi-complex-zeta3": lambda: equidistribute(
        random_config(6, 4, field=3, seed=7300,
                      coloring=[0, 0, 0, 1, 1, 1]), 2),
    "equi-complex-r1": lambda: equidistribute(
        random_config(6, 4, field=4, seed=21), 1),
    "equi-complex-embedded": lambda: equidistribute(
        random_config(9, 7, field=4, seed=77, coloring=[0] * 9), 3),
    "equi-gate": lambda: equidistribute(
        random_config(7, 5, seed=1), 3, lp_gate=0),
    "pierce-real": lambda: _pierce(random_config(7, 5, seed=7), [[2]], 3,
                                   [0]),
    "pierce-complex": lambda: _pierce(
        random_config(6, 4, field=4, seed=21), [[3]], 2, [0]),
    "pierce-below-none": lambda: _pierce(random_config(5, 3, seed=7), [[2]],
                                         3, [0]),
    "pierce-not-prime-power": lambda: _pierce(
        random_config(12, 10, seed=4), [], 6, [], lp_gate=200_000),
    "pierce-bad-certificate": lambda: _pierce(
        random_config(7, 5, seed=8), [[0], [1], [2]], 3, [0, 0, 0]),
    "pierce-certificate-mismatch": lambda: pierce(
        random_config(7, 5, seed=8), *_family(7, [[2]], 3, [0]), 4),
    "pierce-family-size": lambda: pierce(
        random_config(7, 5, seed=8), *_family(6, [[2]], 3, [0]), 3),
    "pierce-real-r2": lambda: _pierce(random_config(7, 5, seed=7), [[2]], 2,
                                      [0]),
    "rainbow-real": lambda: rainbow(
        random_config(8, 6, seed=9, coloring=[0] * 4 + [1] * 4), 4),
    "rainbow-wrong-class-count": lambda: rainbow(
        random_config(9, 7, seed=1, coloring=[0] * 3 + [1] * 3 + [2] * 3),
        3),
    "rainbow-r-plus-one-not-prime": lambda: rainbow(
        random_config(10, 8, seed=9, coloring=[0] * 5 + [1] * 5), 5),
    "rainbow-real-r2": lambda: rainbow(
        random_config(6, 4, seed=9, coloring=[0, 0, 1, 1, 2, 2]), 2),
    "rainbow-real-below-none": lambda: rainbow(
        random_config(8, 5, seed=9, coloring=[0] * 4 + [1] * 4), 3),
    "rainbow-complex": lambda: rainbow(
        random_config(6, 4, field=4, seed=22, coloring=[0, 0, 1, 1, 2, 2]),
        2),
    "rainbow-complex-between": lambda: rainbow(
        random_config(5, 3, field=4, seed=24, coloring=[0, 0, 0, 1, 1]), 2),
    "rainbow-complex-below-none": lambda: rainbow(
        random_config(4, 2, field=4, seed=22, coloring=[0, 0, 1, 1]), 2),
    "rainbow-no-coloring": lambda: rainbow(random_config(8, 6, seed=9), 4),
    "rainbow-small-class": lambda: rainbow(
        random_config(8, 6, seed=10, coloring=[0] * 6 + [1] * 2), 4),
    "two-fans-equidistribute": lambda: two_fans(
        random_config(10, 8, seed=1000, coloring=[0] * 5 + [1] * 5), 3,
        time_budget=0),
    "two-fans-pierce": lambda: two_fans(
        random_config(9, 7, seed=12), 3, certificate=_family(
            9, [list(range(9)), [4]], 9, [0, 1])[1], time_budget=0),
    "two-fans-digit-condition": lambda: two_fans(
        random_config(9, 7, seed=11, coloring=[0] * 9), 3),
    "two-fans-r4": lambda: two_fans(
        random_config(10, 8, seed=1000, coloring=[0] * 5 + [1] * 5), 4),
    "two-fans-pierce-certificate-mismatch": lambda: two_fans(
        random_config(9, 7, seed=12), 3, certificate=_family(
            9, [list(range(9)), [4]], 3, [0, 1])[1]),
    "two-fans-pierce-bad-certificate": lambda: two_fans(
        random_config(9, 7, seed=12), 3, certificate=_family(
            9, [[i] for i in range(9)], 9, [0] * 9)[1]),
    "two-fans-pierce-family-size": lambda: two_fans(
        random_config(9, 7, seed=12), 3, certificate=_family(
            12, [[4], [10]], 9, [0, 1])[1]),
}

DRIVER_OUTCOMES = {
    "equi-complex": (
        (), True,
        "7b63aa6106d15e6d90cf2c78f7b924f809d8af13bd90d55a521feb4d6e11aba8"),
    "equi-complex-embedded": (
        ("coordinates embedded into Q(zeta_12) for omega_3",), True,
        "f2455f9acffc1202dc1618dcab4087cbd393724d60cb443b5a425efa76ce7b38"),
    "equi-complex-r1": (
        PreconditionError,
        "r must be at least 2"),
    "equi-complex-zeta3": (
        ("coordinates embedded into Q(zeta_12) for omega_2",), True,
        "3f229b1d6db2478f708fd3e4a9b29f34952a490e8b36a39293ef9aefb81c8d9e"),
    "equi-gate": (
        SizeGateExceeded,
        "feasibility-check gate 0 exceeded"),
    "equi-not-prime-power": (
        ("n=12 below the guarantee bound 16; proceeding best-effort",
         "r=6 is not a prime power; no guarantee applies",), False,
        "89eb5bac619f4eda3d053325bbfcad838864e8b100c1361587d717f2ded96566"),
    "equi-real": (
        (), True,
        "da8c2e67522af97daf3d018384b2d37aa4640750c61d2fda21322f7a0d98c980"),
    "equi-real-below": (
        ("n=6 below the guarantee bound 7; proceeding best-effort",), False,
        "fbe23868ced5eb2f11d149f60fe873efc0cb90b99b399e6616ecfe9b6523e0cd"),
    "equi-real-below-none": None,
    "equi-real-r2": (
        PreconditionError,
        "real fans need r >= 3"),
    "pierce-bad-certificate": (
        PreconditionError,
        "invalid chromatic certificate: (0, ((0,), (1,), (2,)))"),
    "pierce-below-none": None,
    "pierce-certificate-mismatch": (
        PreconditionError,
        "certificate must cover this family and r"),
    "pierce-complex": (
        (), True,
        "d443e5c7ac8cb98cb8d09a723e6d7a485010186a94141936202d23dadb21c9a9"),
    "pierce-family-size": (
        PreconditionError,
        "family ground set must match the points"),
    "pierce-real-r2": (
        PreconditionError,
        "real fans need r >= 3"),
    "pierce-not-prime-power": (
        ("n=12 below the guarantee bound 16",
         "r=6 is not a prime power; no guarantee applies",), False,
        "f2045d1f60d5f3a52de535eba651a18b7fe59d1b5354dfd7f831e8d57a054718"),
    "pierce-real": (
        (), True,
        "f8f85435e286e9b2478ede3f7bf993d4127ab608a76573dd3d7c7a98da712651"),
    "rainbow-complex": (
        (), True,
        "cbc85f38eb013f504557519ec080df20c63bf55bca958d45d92115d828b075e6"),
    "rainbow-complex-below-none": None,
    "rainbow-real-below-none": None,
    "rainbow-complex-between": (
        ("2 classes given, the theorem speaks of 3",
         "n=5 sits between the two published thresholds 5 and 6: "
         "the guarantee is ambiguous there",), False,
        "f98bda6a4703573c5f426ba1eeabd2a6727c6477c8465d2cf24411bdbe374e70"),
    "rainbow-no-coloring": (
        PreconditionError,
        "rainbow mode needs a coloring"),
    "rainbow-r-plus-one-not-prime": (
        ("r+1=6 is not prime; no guarantee applies",), False,
        "97d0df093de8f172a7bf8316fed5cec4eb8e93ae90bcf1d06b648c2476773f88"),
    "rainbow-real": (
        (), True,
        "0e9f35cdb7f9c1c1669b95cb5d5e8566a366c6d2c60e0c0fce77581400bf8b39"),
    "rainbow-real-r2": (
        PreconditionError,
        "real fans need r >= 3"),
    "rainbow-small-class": (
        PreconditionError,
        "every class needs at least r=4 points, sizes [6, 2]"),
    "rainbow-wrong-class-count": (
        ("3 classes given, the theorem speaks of 2",
         "r+1=4 is not prime; no guarantee applies",
         "r below the theorem's range",), False,
        "31dc03c36ad6d046946156183fd3fc3f7f936b886f8f99058b8a7e4529815b10"),
    "two-fans-digit-condition": (
        PreconditionError,
        "m=1 fails the digit condition: base-3 digits [1]"),
    "two-fans-equidistribute": (
        ("n=10 below the guarantee bound 13",), None,
        "30eb65e5de7cc9909c802948d0c6ab4f8bf2898f9e4a0b8fb11b4555abbe846e"),
    "two-fans-pierce": (
        ("n=9 below the guarantee bound 13",), None,
        "9dd84445a7c113fbafeb367cd531953be0950f3ce4f5802c0705eb88a4eec4b2"),
    "two-fans-pierce-bad-certificate": (
        PreconditionError,
        "invalid chromatic certificate: "
        "(0, ((0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,)))"),
    "two-fans-pierce-certificate-mismatch": (
        PreconditionError,
        "certificate must cover this family and r^2"),
    "two-fans-pierce-family-size": (
        PreconditionError,
        "family ground set must match the points"),
    "two-fans-r4": (
        PreconditionError,
        "r must be an odd prime"),
}


def driver_outcome(run):
    """(warnings, guaranteed, JSON SHA-256), None, or (class, message)."""
    try:
        res = run()
    except (PreconditionError, SizeGateExceeded) as exc:
        return type(exc), str(exc)
    if res is None:
        return None
    digest = hashlib.sha256(
        canonical_json(res.to_json()).encode()).hexdigest()
    return res.warnings, getattr(res, "guaranteed", None), digest


@pytest.mark.parametrize("name", sorted(DRIVER_CASES))
def test_driver_outcome_pinned(name):
    assert driver_outcome(DRIVER_CASES[name]) == DRIVER_OUTCOMES[name]


@pytest.mark.parametrize("name", ["equi-real", "equi-real-below"])
def test_exhausted_search_raises_only_under_guarantee(monkeypatch, name):
    # an empty search is a bug signal when the hypotheses hold
    # (equi-real), and a plain None when they do not (equi-real-below)
    monkeypatch.setattr(pipeline, "search_tuple",
                        lambda *args, **kwargs: None)
    if DRIVER_OUTCOMES[name][1]:
        with pytest.raises(GuaranteeViolation) as exc:
            DRIVER_CASES[name]()
        assert str(exc.value) == (
            "search exhausted although equidistribution theorem "
            "hypotheses hold guarantees a tuple")
    else:
        assert DRIVER_CASES[name]() is None


def _counting_solves(run):
    """(run(), ExactWeightSolver.solve calls, distinct candidates emitted).

    The last counts the distinct candidates every Tverberg stream of the
    run emitted.
    """
    emitted = set()
    stream = tverberg._candidate_stream

    def recording(*args, **kwargs):
        for parts in stream(*args, **kwargs):
            emitted.add(parts)
            yield parts

    with mock.patch.object(ExactWeightSolver, "solve", autospec=True,
                           side_effect=ExactWeightSolver.solve) as solve, \
            mock.patch.object(tverberg, "_candidate_stream", recording):
        out = run()
    return out, solve.call_count, len(emitted)


def test_two_fan_join_solves_few_candidates():
    # collecting every proper tuple first solves all 6,930 candidates
    name = "two-fans-equidistribute"
    outcome, solves, distinct = _counting_solves(
        lambda: driver_outcome(DRIVER_CASES[name]))
    assert outcome == DRIVER_OUTCOMES[name]
    assert solves == distinct == 2


def test_two_fan_without_pair_solves_each_candidate_once():
    # the search runs on a line, where the stream emits only proper
    # candidates: the 280 of the unpruned first stream that solve
    X = random_config(8, 6, seed=1000, coloring=[0] * 4 + [1] * 4)
    res, solves, distinct = _counting_solves(
        lambda: two_fans(X, 3))
    assert res is None
    assert solves == distinct == 280


def test_two_fans_pierce_pairs_a_tuple_with_itself():
    # the first proper tuple I avoids index 4, so every candidate passes
    # its cells: the second stream walks stream one again up to J = I.
    # On a line both streams emit only proper candidates, so I and J = I
    # are the first of each and the memo answers the second solve
    res, solves, distinct = _counting_solves(DRIVER_CASES["two-fans-pierce"])
    assert res.tuples[0] == res.tuples[1]
    assert solves == distinct == 1


@pytest.mark.parametrize("run", [
    *(lambda s=s: equidistribute(random_config(10, 8, seed=s), 4)
      for s in range(4000, 4004)),
    *(lambda s=s: rainbow(random_config(8, 6, seed=s,
                                        coloring=[0] * 4 + [1] * 4), 4)
      for s in range(5000, 5004)),
], ids=[f"equidistribute-{s}" for s in range(4000, 4004)]
    + [f"rainbow-{s}" for s in range(5000, 5004)])
def test_desk_inputs_solve_one_candidate(run):
    # the benchmark's desk inputs search on a line, where the stream emits
    # only proper candidates: the first emitted one is the answer (seed
    # 4003 solved 421 candidates and 5003 solved 11 with hull pruning)
    res, solves, distinct = _counting_solves(run)
    assert res is not None
    assert solves == distinct == 1


def test_desk_equidistribute_solves_only_feasible_unique_systems():
    # point pruning leaves no uniquely solvable system with a weight
    # <= 0 to solve; here the one solve is the proper tuple
    outcomes, feasible = [], []
    elim = feaslp._solve_equalities_int
    solve = ExactWeightSolver.solve

    def recording_elim(M, nvars):
        out = elim(M, nvars)
        outcomes.append(out[0])
        return out

    def recording_solve(self, parts):
        witness = solve(self, parts)
        feasible.append(witness is not None)
        return witness

    X = random_config(10, 8, seed=4000)
    with mock.patch.object(feaslp, "_solve_equalities_int", recording_elim), \
            mock.patch.object(ExactWeightSolver, "solve", recording_solve):
        outcome = driver_outcome(lambda: equidistribute(X, 4))
    assert outcome == ((), True, "27e50e0ff9a884301340d9271581b899"
                                 "8b8140209a9971ceb890c6ec9e0b4a04")
    assert ("unique", False) not in zip(outcomes, feasible)
    assert len(feasible) == 1


def _desk_inputs():
    """The benchmark's desk ops as (X, run) pairs."""
    family = SetFamily.all_k_subsets(10, 3)
    cert = ColoringCertificate(family, 4, (0,) * len(family.members))
    cases = []
    for s in range(4):
        X = random_config(10, 8, seed=4000 + s)
        cases.append((X, lambda X=X: equidistribute(X, 4)))
        X = random_config(8, 6, seed=5000 + s, coloring=[0] * 4 + [1] * 4)
        cases.append((X, lambda X=X: rainbow(X, 4)))
        X = random_config(10, 8, seed=600 + s)
        cases.append((X, lambda X=X: pierce(X, family, cert, 4)))
    return cases


@pytest.mark.parametrize("X, run", _desk_inputs() + [
    # one-bit coordinates: the corresponding primal is not in strong
    # general position
    (X, lambda X=X: equidistribute(X, 3)) for X in
    (random_config(7, 5, bits=1, seed=s) for s in (1, 2))])
def test_desk_typicality_is_is_typical(X, run):
    # the pipeline decides typicality from its own pair's primal
    res = run()
    assert res.typical is not None
    assert res.typical == is_typical(X)


def test_every_export_resolves():
    """Each name in a module's ``__all__`` exists, so ``import *`` works."""
    names = ["fandist"] + [f"fandist.{m.name}"
                           for m in pkgutil.iter_modules(fandist.__path__)]
    checked = set()
    for name in names:
        module = importlib.import_module(name)
        if not hasattr(module, "__all__"):
            continue
        assert [e for e in module.__all__ if not hasattr(module, e)] == [], name
        exec(f"from {name} import *", {})
        checked.add(name)
    assert {"fandist.fans", "fandist.tverberg"} <= checked
