"""Workloads: fixed op lists, input generation and output checks.

Each workload owns a fixed pool of ops.  Input seeds come from the
repository's acceptance scenarios, so the pools are not chosen by cost.
The workload seed given on the command line decides the order in which a
run walks the pool, or, where a pass holds one op (``certify``), which op
of the pool that is.  Every op's result is checked from outside the
package and its canonical-JSON SHA-256 is compared with the reference
digests in ``reference.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass, field

# random_config(6, 4, field=N, ...) with equidistribute(X, 2) raises
# GuaranteeViolation on every seed tried for these conductors.  The ops
# stay in the pool so the defect shows in ops_failed_frac.
KNOWN_DEFECT = "GuaranteeViolation"
KNOWN_DEFECT_CONDUCTORS = (8,)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_of(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


@dataclass(frozen=True)
class OpSpec:
    """One op of a pool: a pipeline call and the parameters of its input."""

    key: str
    kind: str
    params: dict = field(hash=False)


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple
    ops_per_pass: int   # 0 walks the whole pool in seeded order
    min_rounds: int     # rounds (set-up plus one pass) a run makes at least

    def pass_list(self, seed: int) -> list:
        """The ops one pass of this run executes, in order."""
        ops = list(self.pool)
        rng = random.Random(seed)
        rng.shuffle(ops)
        return ops if self.ops_per_pass == 0 else ops[:self.ops_per_pass]


def _desk_pool():
    ops = []
    for s in range(4):
        ops.append(OpSpec(f"equidistribute/n10-D8-r4/seed{4000 + s}",
                          "equidistribute",
                          {"n": 10, "D": 8, "r": 4, "seed": 4000 + s}))
        ops.append(OpSpec(f"rainbow/n8-D6-r4-4.4/seed{5000 + s}", "rainbow",
                          {"n": 8, "D": 6, "r": 4, "seed": 5000 + s,
                           "coloring": [0] * 4 + [1] * 4}))
        ops.append(OpSpec(f"pierce/n10-D8-r4-k3/seed{600 + s}", "pierce",
                          {"n": 10, "D": 8, "r": 4, "seed": 600 + s,
                           "k": 3}))
    return tuple(ops)


def _certify_pool():
    return tuple(
        OpSpec(f"certify/r3-m2-d1-k0-ell4/seed{s}", "certify",
               {"r": 3, "m": 2, "d": 1, "k": 0, "ell": 4, "seed": s})
        for s in range(1, 4))


def _two_fan_pool():
    return tuple(
        OpSpec(f"two-fan/n10-D8-r3-5.5/seed{1000 + s}", "two-fan",
               {"n": 10, "D": 8, "r": 3, "seed": 1000 + s,
                "coloring": [0] * 5 + [1] * 5})
        for s in range(2))


def _complex_pool():
    return tuple(
        OpSpec(f"equidistribute/n6-D4-r2-3.3-Q(zeta{N})/seed{s}",
               "equidistribute",
               {"n": 6, "D": 4, "r": 2, "seed": s, "field": N,
                "coloring": [0, 0, 0, 1, 1, 1]})
        for N in (3, 4, 8) for s in range(7300, 7306))


WORKLOADS = {
    "desk": Workload("desk", _desk_pool(), 0, 2),
    "certify": Workload("certify", _certify_pool(), 1, 1),
    "two-fan": Workload("two-fan", _two_fan_pool(), 0, 1),
    "complex": Workload("complex", _complex_pool(), 0, 3),
}

# One small op per workload, for the self-test.  The smallest two-fan
# input that admits a pair takes seconds, so the two-fan smoke op is one
# whose exhaustive search proves that no pair exists.  The certify smoke
# op is the real sharpness instance with class one cut to 7 points.
SMOKE = {
    "desk": Workload("desk", (
        OpSpec("smoke/equidistribute/n7-D5-r3/seed3000", "equidistribute",
               {"n": 7, "D": 5, "r": 3, "seed": 3000}),), 0, 1),
    "certify": Workload("certify", (
        OpSpec("smoke/certify/r3-m2-d1-k0-ell4-class7/seed1", "certify",
               {"r": 3, "m": 2, "d": 1, "k": 0, "ell": 4, "seed": 1,
                "class_one": 7}),), 0, 1),
    "two-fan": Workload("two-fan", (
        OpSpec("smoke/two-fan/n6-D4-r3-3.3/seed1000", "two-fan",
               {"n": 6, "D": 4, "r": 3, "seed": 1000,
                "coloring": [0] * 3 + [1] * 3, "expect_none": True}),), 0, 1),
    "complex": Workload("complex", (
        OpSpec("smoke/equidistribute/n6-D4-r2-3.3-Q(zeta4)/seed7300",
               "equidistribute",
               {"n": 6, "D": 4, "r": 2, "seed": 7300, "field": 4,
                "coloring": [0, 0, 0, 1, 1, 1]}),), 0, 1),
}


# -- set-up: inputs from parameters ------------------------------------------

def make_input(spec: OpSpec, fd) -> dict:
    """Generate the input of one op with the freshly imported package."""
    p = spec.params
    if spec.kind == "certify":
        inst = fd.genpos.build_counterexample(
            p["r"], p["m"], p["d"], p["k"], p["ell"], seed=p["seed"])
        if "class_one" in p:
            size, n = p["class_one"], inst.config.n
            inst = dataclasses.replace(inst, config=inst.config.with_coloring(
                [0] * size + [1] * (n - size)))
        return {"instance": inst,
                "instance_sha256": sha256_of(inst.to_json())}
    X = fd.genpos.random_config(p["n"], p["D"], p.get("field", "rational"),
                                seed=p["seed"], coloring=p.get("coloring"))
    out = {"X": X}
    if spec.kind == "pierce":
        family = fd.kneser.SetFamily.all_k_subsets(p["n"], p["k"])
        out["family"] = family
        out["certificate"] = fd.kneser.ColoringCertificate(
            family, p["r"], tuple(0 for _ in family.members))
    return out


# -- ops: calls through the module attribute, so traced wrappers apply ------

def run_op(spec: OpSpec, inputs: dict, fd):
    r = spec.params["r"]
    pipeline = fd.pipeline
    if spec.kind == "equidistribute":
        return pipeline.equidistribute(inputs["X"], r)
    if spec.kind == "rainbow":
        return pipeline.rainbow(inputs["X"], r)
    if spec.kind == "pierce":
        return pipeline.pierce(inputs["X"], inputs["family"],
                               inputs["certificate"], r)
    if spec.kind == "certify":
        return pipeline.verify_no_equidistribution(inputs["instance"])
    if spec.kind == "two-fan":
        return pipeline.two_fans(inputs["X"], r, time_budget=0)
    raise ValueError(f"unknown op kind {spec.kind!r}")


def result_json(spec: OpSpec, inputs: dict, result):
    if spec.kind == "certify":
        return {"instance_sha256": inputs["instance_sha256"],
                "no_equidistribution": result}
    return None if result is None else result.to_json()


def _fresh_report(spec: OpSpec, inputs: dict, result, fd):
    """Re-verify the returned fan(s) on the original input, from outside."""
    X = inputs["X"]
    verify_report = fd.fans.verify_report
    if spec.kind == "two-fan":
        first, second = result.affine_fans
        return verify_report(first, X, "two-fan", other_fan=second)
    fan = result.affine_fan
    if isinstance(fan, fd.fans.ComplexFan) and X.conductor != fan.N:
        X = X.to_conductor(fan.N)   # the pipeline embedded X the same way
    return verify_report(fan, X, spec.kind, family=inputs.get("family"))


def check_result(spec: OpSpec, inputs: dict, result, reference: dict, fd):
    """None when the op's output is correct, else the reason it is not."""
    if spec.params.get("expect_none"):
        if result is not None:
            return "expected no result"
    elif spec.kind == "certify":
        if result is not True:
            return f"verify_no_equidistribution returned {result!r}"
    else:
        if result is None:
            return "no result"
        if not result.report.passes:
            return f"report fails: {result.report.failures}"
        fresh = _fresh_report(spec, inputs, result, fd)
        if not fresh.passes:
            return f"fresh verify_report fails: {fresh.failures}"
    digest = sha256_of(result_json(spec, inputs, result))
    want = reference.get("sha256")
    if want is None:
        if reference.get("raises"):
            return None   # a recorded defect now yields a verified result
        return "no reference digest for this op"
    if digest != want:
        return f"digest {digest[:16]} differs from reference {want[:16]}"
    return None


def is_known_defect(spec: OpSpec, exc: BaseException) -> bool:
    return (type(exc).__name__ == KNOWN_DEFECT
            and spec.params.get("field") in KNOWN_DEFECT_CONDUCTORS)
