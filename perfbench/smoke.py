#!/usr/bin/env python3
"""Self-test of the benchmark: one small op per workload, in seconds.

    python3 perfbench/smoke.py

Runs ``run.py --smoke`` once untraced and twice traced on every workload
and checks that

* every metric named in BENCHMARK.json is printed by name with its unit,
  and appears in the result JSON with that unit;
* each wrapper fires where the layer mapping expects it to: no simplex
  call on certify, some on two-fan, genpos only on desk, Cyclotomic
  arithmetic only on complex;
* two traced runs give identical counters;
* a wrapper whose target is gone is reported missing, not as zero;
* without the package sources the benchmark fails and prints no result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import run
import tracer as tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 120


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=TIMEOUT)
    return proc


def measured(workload, trace):
    proc = bench("--smoke", "--workload", workload, "--seed", "1",
                 "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0, proc.stdout
    kind = "per_layer" if trace else "end_to_end"
    for m in SPEC[kind]:
        name, unit = m["name"], m["unit"]
        assert result["metrics"][name]["unit"] == unit, (workload, name)
        pattern = rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)"
        assert any(re.match(pattern, line) for line in lines[:-1]), \
            (workload, name, unit)
    return {k: v["value"] for k, v in result["metrics"].items()}


def counters(metrics):
    """The per-layer values that must repeat exactly: counts and yield."""
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    return {k: v for k, v in metrics.items()
            if units[k] == "count" or k == "feaslp.yield"}


def check_mapping(name, m):
    assert m["tverberg.candidates"] > 0, name
    genpos = m["genpos.typicality_s"] > 0 or m["genpos.sgp_rank_calls"] > 0
    assert genpos == (name == "desk"), (name, "genpos")
    cyclo = m["exactnum.cyclo_mul_calls"] > 0 or m["exactnum.cyclo_s"] > 0
    assert cyclo == (name == "complex"), (name, "exactnum.cyclo")
    if name == "certify":
        assert m["feaslp.simplex_calls"] == 0, name
        assert m["feaslp.simplex_pivots"] == 0, name
        assert m["feaslp.elim_inconsistent"] == m["tverberg.candidates"]
        assert m["fans.build_s"] == 0 and m["fans.verify_s"] == 0, name
    if name == "two-fan":
        assert m["feaslp.simplex_calls"] > 0, name
        assert m["feaslp.simplex_pivots"] > 0, name
    if name in ("desk", "complex"):
        assert m["galedual.prepare_s"] > 0, name
        assert m["fans.build_s"] > 0 and m["fans.verify_s"] > 0, name
        assert m["kneser.certificate_s"] > 0, name
        assert m["pipeline.self_s"] > 0, name
    if name == "desk":
        assert m["exactnum.matrix_calls"] > 0, name


def check_missing_wrapper():
    sys.path.insert(0, str(run.SRC))
    fd = run.fresh_import()
    modules = dict(fd.modules)
    feaslp = vars(modules["fandist.feaslp"]).copy()
    del feaslp["_pivot"]
    modules["fandist.feaslp"] = SimpleNamespace(**feaslp)
    tr = tracing.Tracer()
    tr.install(modules)
    try:
        assert tr.missing == {"feaslp.simplex_pivots": "fandist.feaslp:_pivot"}
        layer = tr.layer_metrics(1)
    finally:
        tr.uninstall()
    assert "feaslp.simplex_pivots" not in layer
    assert layer["feaslp.simplex_calls"] == 0


def check_bare_directory():
    bare = run.HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "desk", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc


def main():
    assert set(workloads.SMOKE) == {w["name"] for w in SPEC["workloads"]}
    for name in workloads.SMOKE:
        measured(name, 0)
        first = measured(name, 1)
        second = measured(name, 1)
        assert counters(first) == counters(second), name
        check_mapping(name, first)
        print(f"{name}: metrics printed, wrappers fire as mapped, "
              "counters repeat", flush=True)
    check_missing_wrapper()
    print("missing wrapper reported as missing", flush=True)
    check_bare_directory()
    print("bare directory: fails without a result", flush=True)
    print("smoke: PASS")


if __name__ == "__main__":
    main()
