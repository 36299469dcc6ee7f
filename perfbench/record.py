#!/usr/bin/env python3
"""Record the reference digests of every op in every pool.

    python3 perfbench/record.py

Runs each op once (the full pools take several minutes) and writes
``perfbench/reference.json``: the SHA-256 of the result's canonical JSON,
or, for ops that fail with the recorded known defect, the exception name.
Any other failure aborts, so a broken program is never recorded.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    specs = [spec for table in (workloads.WORKLOADS, workloads.SMOKE)
             for wl in table.values() for spec in wl.pool]
    reference = {}
    fd = run.fresh_import()
    for spec in specs:
        inputs = workloads.make_input(spec, fd)
        try:
            result = workloads.run_op(spec, inputs, fd)
        except Exception as exc:
            if not workloads.is_known_defect(spec, exc):
                raise
            reference[spec.key] = {"raises": type(exc).__name__,
                                   "known_defect": True}
            print(f"{spec.key}: {type(exc).__name__} (known defect)",
                  flush=True)
            continue
        entry = {"sha256": workloads.sha256_of(
            workloads.result_json(spec, inputs, result))}
        reason = workloads.check_result(spec, inputs, result, entry, fd)
        if reason is not None:
            raise SystemExit(f"{spec.key}: {reason}")
        reference[spec.key] = entry
        print(f"{spec.key}: {entry['sha256']}", flush=True)
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
