"""Span tracer that wraps each layer's entry points from outside the package.

The tracer patches functions and methods of an imported ``fandist`` in
place and restores them on ``uninstall``.  Three kinds of wrapper exist:

* span: records (name, start, end, parent span, op id) in memory; its
  duration counts as child time of the enclosing span;
* leaf: hot arithmetic (Cyclotomic multiply and inverse); timed and
  counted, and its time counts as child time of the enclosing span, but
  no span is stored per call;
* count: a call counter only (constraint checks, simplex pivots).

Wrappers record nothing outside an op, so the benchmark's own output
checks stay untraced.  A layer's self time is its spans' durations minus
the time of their direct children, spans and leaves alike, plus the time
of its own leaf calls.  The tracer is single-threaded: it assumes
``workers=1``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

NS = 1e-9


def _resolve(modules, path):
    """(owner object, attribute) for 'module:attr' or 'module:Class.attr'."""
    mod_name, attr = path.split(":")
    owner = modules[mod_name]
    *cls_path, name = attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner, name


# Where each wrapper goes, as (kind, target, span or counter name).
# Names imported by value are patched in every module that imports them;
# feaslp's stages are reached through module globals, so patching the
# feaslp module attribute reaches them.
WRAPS = [
    ("span", "fandist.pipeline:equidistribute", "pipeline.equidistribute"),
    ("span", "fandist.pipeline:rainbow", "pipeline.rainbow"),
    ("span", "fandist.pipeline:pierce", "pipeline.pierce"),
    ("span", "fandist.pipeline:two_fans", "pipeline.two_fans"),
    ("span", "fandist.pipeline:verify_no_equidistribution",
     "pipeline.verify_no_equidistribution"),
    ("span", "fandist.pipeline:lift_augment", "galedual.lift_augment"),
    ("span", "fandist.pipeline:gale_pair_from_dual",
     "galedual.gale_pair_from_dual"),
    ("span", "fandist.pipeline:search_tuple", "tverberg.search_tuple"),
    ("span", "fandist.genpos:search_tuple", "tverberg.search_tuple"),
    ("span", "fandist.pipeline:search_two_tuples",
     "tverberg.search_two_tuples"),
    ("count", "fandist.tverberg:SearchConstraint.may_add",
     "tverberg.constraint_checks"),
    ("span", "fandist.feaslp:ExactWeightSolver.solve", "feaslp.solve"),
    ("span", "fandist.feaslp:_solve_equalities_int", "feaslp.elim"),
    ("span", "fandist.feaslp:_simplex_max_eps", "feaslp.simplex"),
    ("count", "fandist.feaslp:_pivot", "feaslp.simplex_pivots"),
    ("span", "fandist.exactnum:ExactMatrix.rank", "exactnum.matrix_rank"),
    ("span", "fandist.exactnum:ExactMatrix.kernel_basis",
     "exactnum.matrix_kernel_basis"),
    ("span", "fandist.exactnum:ExactMatrix.solve", "exactnum.matrix_solve"),
    ("leaf", "fandist.exactnum:Cyclotomic.__mul__", "exactnum.cyclo_mul"),
    ("leaf", "fandist.exactnum:Cyclotomic.__rmul__", "exactnum.cyclo_mul"),
    ("leaf", "fandist.exactnum:Cyclotomic.inverse", "exactnum.cyclo_inv"),
    ("span", "fandist.pipeline:fan_from_tuple_real", "fans.build_real"),
    ("span", "fandist.pipeline:fan_from_tuple_complex",
     "fans.build_complex"),
    ("span", "fandist.pipeline:slice_project", "fans.slice_project"),
    ("span", "fandist.pipeline:verify_report", "fans.verify_report"),
    ("span", "fandist.pipeline:is_typical", "genpos.is_typical"),
    ("span", "fandist.pipeline:verify_certificate",
     "kneser.verify_certificate"),
    ("span", "fandist.pipeline:threshold_caps", "kneser.threshold_caps"),
]

_MATRIX = ["exactnum.matrix_rank", "exactnum.matrix_kernel_basis",
           "exactnum.matrix_solve"]

# Per-layer metric -> (unit, wrapper names it needs).  A metric
# whose wrapper target no longer exists is reported missing, never zero.
LAYER_METRICS = {
    "galedual.prepare_s": ("s", ["galedual.lift_augment",
                                 "galedual.gale_pair_from_dual"]),
    "tverberg.self_s": ("s", ["tverberg.search_tuple",
                              "tverberg.search_two_tuples", "feaslp.solve"]),
    "tverberg.candidates": ("count", ["feaslp.solve"]),
    "tverberg.constraint_checks": ("count", ["tverberg.constraint_checks"]),
    "feaslp.solve_s": ("s", ["feaslp.solve"]),
    "feaslp.feasible": ("count", ["feaslp.solve"]),
    "feaslp.yield": ("ratio", ["feaslp.solve"]),
    "feaslp.elim_s": ("s", ["feaslp.elim"]),
    "feaslp.elim_inconsistent": ("count", ["feaslp.elim"]),
    "feaslp.elim_unique": ("count", ["feaslp.elim"]),
    "feaslp.elim_under": ("count", ["feaslp.elim"]),
    "feaslp.simplex_s": ("s", ["feaslp.simplex"]),
    "feaslp.simplex_calls": ("count", ["feaslp.simplex"]),
    "feaslp.simplex_pivots": ("count", ["feaslp.simplex_pivots"]),
    "exactnum.matrix_s": ("s", _MATRIX),
    "exactnum.matrix_calls": ("count", _MATRIX),
    "exactnum.cyclo_mul_calls": ("count", ["exactnum.cyclo_mul"]),
    "exactnum.cyclo_inv_calls": ("count", ["exactnum.cyclo_inv"]),
    "exactnum.cyclo_s": ("s", ["exactnum.cyclo_mul", "exactnum.cyclo_inv"]),
    "fans.build_s": ("s", ["fans.build_real", "fans.build_complex",
                           "fans.slice_project"]),
    "fans.verify_s": ("s", ["fans.verify_report"]),
    "genpos.typicality_s": ("s", ["genpos.is_typical"]),
    "genpos.sgp_rank_calls": ("count", ["genpos.is_typical",
                                        "exactnum.matrix_rank"]),
    "kneser.certificate_s": ("s", ["kneser.verify_certificate",
                                   "kneser.threshold_caps"]),
    "pipeline.self_s": ("s", ["pipeline.equidistribute"]),
}


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per stored span, in order of entry
        self.s_name = array("H")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("l")
        self.s_op = array("l")
        self.stack: list[list[int]] = []   # frames: [span index, child ns]
        self.op_id = -1
        self.active: Counter = Counter()   # span names currently open
        self.calls: Counter = Counter()    # per wrapper name
        self.incl_ns: Counter = Counter()  # inclusive time per wrapper name
        self.self_ns: Counter = Counter()  # self time per layer
        self.events: Counter = Counter()   # outcome counters
        self.missing: dict[str, str] = {}  # wrapper name -> absent target
        self._installed: list[tuple] = []  # (owner, attr, original)
        self._in_leaf = False

    # -- span bookkeeping

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, name: str) -> list[int]:
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self.stack[-1][0] if self.stack else -1)
        self.s_op.append(self.op_id)
        self.s_start.append(perf_counter_ns())
        self.s_end.append(0)
        frame = [idx, 0]
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def _close(self, frame: list[int], name: str, layer: str) -> None:
        end = perf_counter_ns()
        idx, child = frame
        self.stack.pop()
        self.active[name] -= 1
        self.s_end[idx] = end
        dur = end - self.s_start[idx]
        self.calls[name] += 1
        self.incl_ns[name] += dur
        self.self_ns[layer] += dur - child
        if self.stack:
            self.stack[-1][1] += dur

    def begin_op(self, op_id: int) -> list[int]:
        self.op_id = op_id
        return self._open(self._name_id("bench.op"), "bench.op")

    def end_op(self, frame: list[int]) -> None:
        self._close(frame, "bench.op", "bench")
        self.op_id = -1

    # -- wrappers

    def _span(self, name, fn):
        nid = self._name_id(name)
        layer = name.split(".")[0]
        on_result = _RESULT_HOOKS.get(name)
        is_rank = name == "exactnum.matrix_rank"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            if is_rank and self.active["genpos.is_typical"]:
                self.events["genpos.sgp_rank_calls"] += 1
            frame = self._open(nid, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, name, layer)
            if on_result is not None:
                on_result(self.events, result)
            return result
        return wrapper

    def _leaf(self, name, fn):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.stack or self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                self._in_leaf = False
                self.calls[name] += 1
                self.incl_ns[name] += dur
                self.self_ns[layer] += dur
                self.stack[-1][1] += dur
        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.stack:
                self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, modules) -> None:
        """Patch every target in WRAPS; record the ones that are gone."""
        makers = {"span": self._span, "leaf": self._leaf,
                  "count": self._count}
        for kind, target, name in WRAPS:
            try:
                owner, attr = _resolve(modules, target)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (KeyError, AttributeError):
                self.missing[name] = target
                continue
            setattr(owner, attr, makers[kind](name, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer metrics; metrics with a missing wrapper are left out."""
        c, t, e = self.calls, self.incl_ns, self.events
        solves = c["feaslp.solve"]
        per_op = {
            "galedual.prepare_s": (t["galedual.lift_augment"]
                                   + t["galedual.gale_pair_from_dual"]) * NS,
            "tverberg.self_s": self.self_ns["tverberg"] * NS,
            "tverberg.candidates": solves,
            "tverberg.constraint_checks": c["tverberg.constraint_checks"],
            "feaslp.solve_s": t["feaslp.solve"] * NS,
            "feaslp.feasible": e["feaslp.feasible"],
            "feaslp.elim_s": t["feaslp.elim"] * NS,
            "feaslp.elim_inconsistent": e["feaslp.elim_inconsistent"],
            "feaslp.elim_unique": e["feaslp.elim_unique"],
            "feaslp.elim_under": e["feaslp.elim_under"],
            "feaslp.simplex_s": t["feaslp.simplex"] * NS,
            "feaslp.simplex_calls": c["feaslp.simplex"],
            "feaslp.simplex_pivots": c["feaslp.simplex_pivots"],
            "exactnum.matrix_s": (t["exactnum.matrix_rank"]
                                  + t["exactnum.matrix_kernel_basis"]
                                  + t["exactnum.matrix_solve"]) * NS,
            "exactnum.matrix_calls": (c["exactnum.matrix_rank"]
                                      + c["exactnum.matrix_kernel_basis"]
                                      + c["exactnum.matrix_solve"]),
            "exactnum.cyclo_mul_calls": c["exactnum.cyclo_mul"],
            "exactnum.cyclo_inv_calls": c["exactnum.cyclo_inv"],
            "exactnum.cyclo_s": (t["exactnum.cyclo_mul"]
                                 + t["exactnum.cyclo_inv"]) * NS,
            "fans.build_s": (t["fans.build_real"] + t["fans.build_complex"]
                             + t["fans.slice_project"]) * NS,
            "fans.verify_s": t["fans.verify_report"] * NS,
            "genpos.typicality_s": t["genpos.is_typical"] * NS,
            "genpos.sgp_rank_calls": e["genpos.sgp_rank_calls"],
            "kneser.certificate_s": (t["kneser.verify_certificate"]
                                     + t["kneser.threshold_caps"]) * NS,
            "pipeline.self_s": self.self_ns["pipeline"] * NS,
        }
        out = {k: v / ops for k, v in per_op.items()}
        # a ratio of totals, so it is not divided by the op count
        out["feaslp.yield"] = e["feaslp.feasible"] / solves if solves else 0.0
        gone = set(self.missing)
        return {k: v for k, v in out.items()
                if not gone.intersection(LAYER_METRICS[k][1])}

    def write(self, path: str) -> None:
        """Spans as native-order column arrays plus a JSON header."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        columns = [("name", self.s_name), ("start_ns", self.s_start),
                   ("end_ns", self.s_end), ("parent", self.s_parent),
                   ("op", self.s_op)]
        header = {"spans": len(self.s_name), "names": self.names,
                  "columns": [[n, a.typecode, a.itemsize] for n, a in columns],
                  "byteorder": sys.byteorder}
        with open(path + ".json", "w") as fh:
            json.dump(header, fh)
        with open(path + ".bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)


def _count_feasible(events, witness):
    if witness is not None:
        events["feaslp.feasible"] += 1


def _count_elimination(events, outcome):
    events["feaslp.elim_" + outcome[0]] += 1


_RESULT_HOOKS = {
    "feaslp.solve": _count_feasible,
    "feaslp.elim": _count_elimination,
}
