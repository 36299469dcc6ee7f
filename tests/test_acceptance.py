"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest -v -s tests/test_acceptance.py``.  Criterion 8
checks sharpness at r=3, m=2, d=1, k=0, seed=1: at ell=3 the instance
admits a verified equidistributing fan, on which the exhaustive decision
and the pipeline must agree; at ell=4, the smallest ell whose dimension
count excludes every capped tuple, non-equidistribution is certified and
the pipeline returns None.
"""

import json
import random
import time
from fractions import Fraction as F
from itertools import product

from fandist.feaslp import ProperWeightProblem, proper_weights
from fandist.fans import ComplexFan
from fandist.galedual import (
    PointConfig,
    dependence_to_functional,
    functional_to_dependence,
    gale_transform,
    inverse_gale,
    linear_change_of_basis,
)
from fandist.genpos import (
    build_counterexample,
    found_equidistributing_tuple,
    is_typical,
    random_config,
    verify_no_equidistribution,
)
from fandist.kneser import ColoringCertificate, SetFamily, m_eligible
from fandist.pipeline import (
    canonical_json,
    equidistribute,
    pierce,
    rainbow,
    two_fans,
)
from fandist.tverberg import search_tuple


def _report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {tag}"
    if detail:
        line += f"  [{detail}]"
    print("\n" + line, flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_gale_duality_suite():
    t0 = time.monotonic()
    rng = random.Random(20240801)
    runs = 0
    while runs < 200:
        d = rng.randint(1, 4)
        n = rng.randint(d + 2, 10)
        X = random_config(n, d, bits=8, seed=rng.randrange(10 ** 9))
        pair = gale_transform(X)
        dual = pair.dual
        # spans and sums to zero exactly
        assert dual.linearly_spanning()
        for i in range(dual.dim):
            assert sum(p[i] for p in dual.points) == 0
        # bridge round trips are exact identities
        alpha = [F(rng.randint(-20, 20), rng.randint(1, 9))
                 for _ in range(dual.dim)]
        if any(a != 0 for a in alpha):
            lam = functional_to_dependence(pair, alpha)
            assert tuple(dependence_to_functional(pair, lam)) == tuple(alpha)
        # inverse recovers the primal up to affine isomorphism
        rec = inverse_gale(dual)
        one = F(1)
        T = linear_change_of_basis(
            [tuple(p) + (one,) for p in rec.points],
            [tuple(p) + (one,) for p in X.points])
        assert T is not None and T.rank() == X.dim + 1
        runs += 1
    elapsed = time.monotonic() - t0
    _report(1, elapsed < 60,
            f"200 primals verified in {elapsed:.1f}s (< 60s)")


def _brute_force_exists(points, r):
    n = len(points)
    for word in product(range(r + 1), repeat=n):
        parts = [tuple(i for i in range(n) if word[i] == j + 1)
                 for j in range(r)]
        if any(not p for p in parts):
            continue
        if any(parts[j][0] >= parts[j + 1][0] for j in range(r - 1)):
            continue
        if proper_weights(ProperWeightProblem(points, parts)) is not None:
            return True
    return False


def test_criterion_02_tverberg_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(20240802)
    agreements = 0
    for trial in range(100):
        r = rng.choice([2, 3])
        d = rng.randint(1, 2)
        n = rng.randint(r + 1, 8)
        X = random_config(n, d, bits=5, seed=rng.randrange(10 ** 9))
        tup = search_tuple(X, r)
        exists = tup is not None
        if tup is not None:
            tup.validate(X)  # witness re-verifies exactly
        assert exists == _brute_force_exists(X.points, r), \
            (n, d, r, X.points)
        agreements += 1
    elapsed = time.monotonic() - t0
    _report(2, agreements == 100 and elapsed < 300,
            f"100 configs agree with brute force in {elapsed:.1f}s (< 5min)")


def test_criterion_03_theorem_desk_run():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(50):
        s0 = time.monotonic()
        X = random_config(7, 5, seed=3000 + seed)
        res = equidistribute(X, 3)
        assert res is not None and res.report.passes and res.guaranteed
        for j in range(3):
            cnt = res.report.cell_class_counts[f"({j},0)"]
            assert 3 * cnt <= 7
        worst = max(worst, time.monotonic() - s0)
    elapsed = time.monotonic() - t0
    _report(3, worst < 30,
            f"50/50 seeds verified, worst seed {worst:.2f}s (< 30s), "
            f"total {elapsed:.1f}s")


def test_criterion_04_dichotomy_example():
    typical_seeds = 0
    for seed in range(20):
        X = random_config(10, 8, seed=4000 + seed)
        res = equidistribute(X, 4)
        assert res is not None and res.report.passes
        center = res.report.center_count
        interiors = res.report.interior_counts
        assert center in (2, 3), (seed, center)
        if center == 2:
            assert interiors == (2, 2, 2, 2)
        else:
            assert sum(interiors) == 7 and all(c <= 2 for c in interiors)
        assert res.typical is True
        assert res.robustness >= 7
        typical_seeds += 1
    _report(4, typical_seeds == 20,
            "20/20 typical seeds: center in {2,3}, interiors (2,2,2,2) "
            "or <=2 each, robustness >= 7")


def test_criterion_05_rainbow_example():
    for seed in range(20):
        X = random_config(8, 6, seed=5000 + seed,
                          coloring=[0, 0, 0, 0, 1, 1, 1, 1])
        res = rainbow(X, 4)
        assert res is not None and res.report.passes
        for j in range(4):
            for k in range(2):
                assert res.report.cell_class_counts[f"({j},{k})"] <= 1
        assert res.typical is True
        assert res.robustness >= 7
    _report(5, True,
            "20/20 seeds rainbow-verified, interiors hold >= 7 of 8")


def test_criterion_06_piercing_example():
    X = random_config(10, 8, seed=600)
    fam = SetFamily.all_k_subsets(10, 3)
    cert = ColoringCertificate(fam, 4, tuple(0 for _ in fam.members))
    res = pierce(X, fam, cert, 4)
    assert res is not None and res.report.passes
    meets = res.report.details["closed_halfflat_meets"]
    assert all(v >= 2 for v in meets.values())
    assert res.report.details["members_inside_one_interior"] == []
    _report(6, True,
            "every 3-subset meets >= 2 closed half-flats, none inside "
            "an open interior")


def test_criterion_07_complex_pipeline():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(20):
        s0 = time.monotonic()
        X = random_config(6, 4, field=4, seed=7000 + seed,
                          coloring=[0, 0, 0, 1, 1, 1])
        res = equidistribute(X, 2)
        assert res is not None and res.report.passes
        assert isinstance(res.affine_fan, ComplexFan)
        assert res.affine_fan.r == 2
        # regular 2-fan: the two rays are opposite (omega_2 = -1), the
        # center is the complex hyperplane <alpha, z> = beta
        assert res.affine_fan.omega(1) == F(-1)
        worst = max(worst, time.monotonic() - s0)
    elapsed = time.monotonic() - t0
    _report(7, worst < 60,
            f"20/20 complex seeds verified, worst {worst:.2f}s (< 60s), "
            f"total {elapsed:.1f}s")


def test_criterion_08_sharpness_counterexample():
    # sharpness at r=3, m=2, d=1, k=0, seed=1.  Parts capped at
    # floor(|X_1|/r) hold at most r*floor(|X_1|/r) points of class one,
    # while a proper r-tuple of points in general position in
    # R^(d+ell-1) needs (r-1)(d+ell)+1 of them; the count excludes every
    # capped tuple once r*floor(|X_1|/r) <= (r-1)(d+ell).
    # ell=3: |X_1|=10 gives 9 of the 9 needed, so the count excludes
    # nothing and the outcome depends on the sample.  This one admits a
    # fan; the exhaustive decision and the pipeline must agree on it and
    # the fan must be a genuine capped one.
    t0 = time.monotonic()
    inst3 = build_counterexample(3, 2, 1, 0, 3, seed=1)
    assert inst3.config.n == 12 and inst3.config.dim == 7
    decided3 = verify_no_equidistribution(inst3)
    res3 = equidistribute(inst3.config, 3)
    agree3 = (res3 is None) == decided3
    c1 = set(inst3.class_one())
    cap = len(c1) // 3
    fan3 = (res3 is not None and res3.report.passes
            and all(set(p) <= c1 and len(p) <= cap
                    for p in res3.tuple_.parts))
    # ell=4: |X_1|=11 gives 9 <= 10, the smallest ell where the count
    # holds, so no capped tuple exists and non-equidistribution certifies
    inst = build_counterexample(3, 2, 1, 0, 4, seed=1)
    assert inst.config.n == 13 and inst.config.dim == 7
    assert inst.config.class_sizes() == [11, 2]
    certified = verify_no_equidistribution(inst)
    assert certified is True
    pipeline_res = equidistribute(inst.config, 3)
    assert pipeline_res is None
    elapsed = time.monotonic() - t0
    detail = (f"ell=3: pipeline "
              f"{'none' if res3 is None else 'found a fan'}, "
              f"verified and capped={fan3}, "
              f"verify_no_equidistribution={decided3}, "
              f"cross-consistent={agree3}; ell=4: "
              f"verify_no_equidistribution={certified}, pipeline "
              f"{'none' if pipeline_res is None else 'found a fan'}, "
              f"{elapsed:.0f}s")
    _report(8, agree3 and fan3 and certified and pipeline_res is None
            and elapsed < 600, detail)


def test_criterion_08_witness_at_ell3_is_genuine():
    # the counter-witness at ell=3 is a real equidistributing fan: the
    # exhaustive search and the pipeline find it independently
    inst = build_counterexample(3, 2, 1, 0, 3, seed=1)
    res = equidistribute(inst.config, 3)
    assert res is not None and res.report.passes
    tup = found_equidistributing_tuple(inst)
    assert tup is not None
    c1 = set(inst.class_one())
    assert all(set(p) <= c1 and len(p) <= 3 for p in tup.parts)
    print("\ncriterion 8 witness: the ell=3 instance admits a verified "
          "equidistributing 3-fan", flush=True)


def test_criterion_09_m_eligibility_table():
    table = {
        (2, 3): True,
        (8, 3): True,
        (1, 3): False,
        (3, 3): False,
        (2, 5): True,
    }
    for (m, r), want in table.items():
        ok, digits = m_eligible(m, r)
        assert ok == want, (m, r, digits)
    assert m_eligible(2, 5)[1] == [4]
    _report(9, True, "r=3: m in {2,8} eligible, {1,3} not; r=5: m=2 "
            "eligible (digit 4)")


def test_criterion_10_two_fan_soundness():
    X = random_config(13, 11, seed=1000, coloring=[0] * 7 + [1] * 6)
    sizes = [7, 6]
    res = two_fans(X, 3)
    assert tuple(t.parts for t in res.tuples) == (
        ((0, 2), (1,), (3, 6)), ((4,), (5, 8), (7, 9)))
    # exact cellwise r^2-cap verification against the original points
    # (the tuples' weight witnesses were re-verified inside the search,
    # against the lifted primal they belong to)
    assert res.report.passes
    for i in range(3):
        for j in range(3):
            for k in range(2):
                cnt = res.report.cell_class_counts[f"({i},{j},{k})"]
                assert 9 * cnt <= sizes[k]
    assert not set(res.tuples[0].support()) & set(res.tuples[1].support())
    _report(10, True, "emitted pair passes exact cellwise r^2-caps")


def test_criterion_11_determinism_across_workers():
    # every search is sequential: two runs serialize byte-identically
    outputs = []
    for _ in range(2):
        chunks = []
        # criterion 1 representative: the Gale dual must serialize
        # identically across runs
        X1 = random_config(8, 3, seed=1101)
        chunks.append(canonical_json(gale_transform(X1).dual.to_json()))
        # criterion 2 representative searches
        for seed in range(10):
            X = random_config(7, 2, seed=1102 + seed)
            tup = search_tuple(X, 3)
            chunks.append("none" if tup is None
                          else canonical_json(tup.to_json()))
        # criteria 3-6 single representative seeds
        X3 = random_config(7, 5, seed=1103)
        chunks.append(canonical_json(equidistribute(X3, 3).to_json()))
        X4 = random_config(10, 8, seed=1104)
        chunks.append(canonical_json(equidistribute(X4, 4).to_json()))
        X5 = random_config(8, 6, seed=1105,
                           coloring=[0, 0, 0, 0, 1, 1, 1, 1])
        chunks.append(canonical_json(rainbow(X5, 4).to_json()))
        X6 = random_config(10, 8, seed=1106)
        fam = SetFamily.all_k_subsets(10, 3)
        cert = ColoringCertificate(fam, 4, tuple(0 for _ in fam.members))
        chunks.append(canonical_json(pierce(X6, fam, cert, 4).to_json()))
        outputs.append("\n".join(chunks))
    identical = outputs[0] == outputs[1]
    _report(11, identical, "result JSON byte-identical across two runs")
