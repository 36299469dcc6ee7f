#!/usr/bin/env python3
"""fandist benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
An untraced run (``--trace 0``) makes rounds until ``--seconds`` have
passed and the workload's minimum round count is reached.  A round sets
up (imports the package afresh, generates every input, loads the
reference digests) and then walks the op list once, one op after another
with ``workers=1``.  Every op's output is checked from outside.  Timings
are in reference seconds (see ``Clock``) and are medians: setup_s over
the set-ups, each op's time over its rounds.

A traced run (``--trace 1``) sets up once, makes one untraced pass, then
traced passes for ``--seconds``; it prints per-layer metrics per op and
the tracing overhead, and writes the spans to ``perfbench/out/``.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5      # set-ups per run at least; extra ones follow the rounds
K_REF = 0.001          # s: about the kernel's time on an idle 2-vCPU VM
KERNEL_REPEATS = 2     # a kernel sample is the fastest of this many runs
SAMPLE_EVERY = 0.1     # s between kernel samples inside a timed interval
REF, WALL = 0, 1       # columns of a timing sample
P90_MIN_PER_RUN = 10   # a set of ten runs then pools at least 100 ops
MODULES = ("fandist.errors", "fandist.exactnum", "fandist.galedual",
           "fandist.feaslp", "fandist.kneser", "fandist.tverberg",
           "fandist.fans", "fandist.genpos", "fandist.pipeline")
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def fresh_import():
    """Drop any loaded fandist modules and import the package again."""
    for name in [m for m in sys.modules
                 if m == "fandist" or m.startswith("fandist.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(name) for name in MODULES}
    return SimpleNamespace(
        modules=mods, pipeline=mods["fandist.pipeline"],
        genpos=mods["fandist.genpos"], kneser=mods["fandist.kneser"],
        fans=mods["fandist.fans"])


def set_up(ops):
    """Import, generate every op's input and load the reference digests."""
    fd = fresh_import()
    inputs = {spec.key: workloads.make_input(spec, fd) for spec in ops}
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    return SimpleNamespace(fd=fd, inputs=inputs, reference=reference)


class Clock:
    """Wall time and the same time in reference seconds.

    The machine's speed drifts by tens of percent within minutes, so the
    clock samples a calibration kernel (fixed pure-Python Fraction work
    that touches no package code) right before a timed interval, every
    SAMPLE_EVERY seconds inside it (from a timer signal) and right after
    it.  Reference seconds are the wall time times K_REF over the mean
    kernel time, i.e. the time the interval would take where the kernel
    takes K_REF.  The sampler's own time is left out of both.
    """

    def __init__(self):
        self.kernel_samples: list[float] = []
        self._samples: list[float] = []
        self._spent = 0.0
        self._t0 = 0.0

    def _sample(self, *_signal_args):
        start = perf_counter()
        best = float("inf")
        for _ in range(KERNEL_REPEATS):
            begin = perf_counter()
            calibration_kernel()
            best = min(best, perf_counter() - begin)
        self._samples.append(best)
        self._spent += perf_counter() - start

    def start(self):
        self._samples = []
        self._sample()
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        self._t0 = perf_counter()

    def stop(self):
        """(reference seconds, wall seconds) since ``start``."""
        wall = perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall -= self._spent
        self._sample()
        self.kernel_samples += self._samples
        return wall * K_REF / statistics.fmean(self._samples), wall

    def ref_factor(self):
        """Reference over wall seconds at this run's median machine speed."""
        return K_REF / statistics.median(self.kernel_samples)


def calibration_kernel():
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return total


def timed_set_up(ops, clock, times):
    gc.collect()
    clock.start()
    env = set_up(ops)
    times.append(clock.stop())
    return env


class Loop:
    """Closed loop over the op list; records each op's outcomes and times."""

    def __init__(self, ops, clock):
        self.ops = ops
        self.clock = clock
        # op key -> (reference s, wall s, verified) of every attempt
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.unexpected: list[str] = []
        self.known: Counter = Counter()     # known-defect failures by op

    def one_op(self, spec, env, tracer=None):
        inputs = env.inputs[spec.key]
        error = None
        gc.collect()   # garbage of earlier ops is not this op's cost
        self.clock.start()
        frame = tracer.begin_op(self.attempted) if tracer else None
        try:
            result = workloads.run_op(spec, inputs, env.fd)
        except Exception as exc:   # an op failure is data, not a crash
            error = exc
        if tracer:
            tracer.end_op(frame)
        ref_s, wall_s = self.clock.stop()
        self.attempted += 1
        ref = env.reference.get(spec.key, {})
        if error is not None:
            reason = None
            name = type(error).__name__
            if ref.get("raises") == name:
                self.known[f"{spec.key}: {name}"] += 1
            else:
                reason = f"raised {name}: {error}"
                traceback.print_exception(error, file=sys.stderr)
        else:
            reason = workloads.check_result(spec, inputs, result, ref, env.fd)
        ok = error is None and reason is None
        self.samples[spec.key].append((ref_s, wall_s, ok))
        if not ok:
            self.failed += 1
        if reason is not None:
            self.unexpected.append(f"{spec.key}: {reason}")

    def one_pass(self, env, tracer=None):
        for spec in self.ops:
            self.one_op(spec, env, tracer)
        self.passes += 1

    def pass_time(self, col=REF):
        """A typical pass: every op at its median time, failed ops too."""
        return sum(statistics.median(s[col] for s in samples)
                   for samples in self.samples.values())

    def op_medians(self, col=REF):
        """Each op's median time over its verified attempts."""
        out = []
        for samples in self.samples.values():
            ok = [s[col] for s in samples if s[2]]
            if ok:
                out.append(statistics.median(ok))
        return out

    def verified_times(self, col=REF):
        return [s[col] for samples in self.samples.values()
                for s in samples if s[2]]

    def ops_per_s(self, col=REF):
        verified = len(self.verified_times())
        return verified / self.passes / self.pass_time(col)

    def check_lines(self, prefix=""):
        lines = [f"{prefix}failure: {u}" for u in self.unexpected]
        lines += [f"{prefix}known-defect failure: {k} (x{n})"
                  for k, n in sorted(self.known.items())]
        lines.append(prefix + fmt(
            "ops_failed_frac", self.failed / self.attempted, "ratio",
            f"({self.failed} of {self.attempted} ops failed)"))
        return lines

    @property
    def correct(self):
        return not self.unexpected and self.attempted > self.failed


def emit(lines, correct, attempted, failed, metrics, units):
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


def fmt(name, value, unit, note=""):
    return f"{name:<28} {value:>14.6g} {unit:<6} {note}".rstrip()


def run_untraced(wl, ops, seconds, head):
    clock = Clock()
    setups: list[tuple] = []
    loop = Loop(ops, clock)
    start = perf_counter()
    while loop.passes < wl.min_rounds or perf_counter() - start < seconds:
        loop.one_pass(timed_set_up(ops, clock, setups))
    while len(setups) < SETUP_REPEATS:
        timed_set_up(ops, clock, setups)

    def timings(col):
        medians = loop.op_medians(col)
        return {"ops_per_s": loop.ops_per_s(col),
                "op_p50_s": statistics.median(medians) if medians else 0.0,
                "setup_s": statistics.median(s[col] for s in setups)}

    metrics = timings(REF)
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    n_ops = len(loop.op_medians())
    notes = {
        "ops_per_s": f"(verified ops per pass over a typical pass of "
                     f"{loop.pass_time():.3f} s; {loop.passes} rounds)",
        "op_p50_s": f"(median over {n_ops} ops of each op's median)",
        "setup_s": f"(median of {len(setups)} set-ups)",
        "peak_rss_mb": "(peak resident set of this process)",
    }
    lines = list(head)
    lines += [fmt(k, v, END_TO_END_UNITS[k], notes[k])
              for k, v in metrics.items()]
    pooled = loop.verified_times()
    if len(pooled) >= P90_MIN_PER_RUN:
        p90 = statistics.quantiles(pooled, n=10)[-1]
        lines.append(fmt("op_p90_s", p90, "s",
                         f"(n={len(pooled)} verified ops pooled)"))
    else:
        lines.append(f"{'op_p90_s':<28} {'n/a':>14} s      (n={len(pooled)}:"
                     f" a set of ten runs pools fewer than 100 ops)")
    lines += [fmt(f"wall_{k}", v, END_TO_END_UNITS[k], "(unscaled wall time)")
              for k, v in timings(WALL).items()]
    lines.append(fmt("calibration_kernel_s",
                     statistics.median(clock.kernel_samples), "s",
                     f"(median of {len(clock.kernel_samples)}; "
                     f"reference {K_REF} s)"))
    for key, samples in loop.samples.items():
        times = " ".join(f"{s[REF]:.4f}" for s in samples)
        lines.append(f"op {key}: {times} s")
    lines += loop.check_lines()
    emit(lines, loop.correct, loop.attempted, loop.failed, metrics,
         END_TO_END_UNITS)


def run_traced(wl, ops, seconds, head, seed):
    clock = Clock()
    env = set_up(ops)
    base = Loop(ops, clock)
    base.one_pass(env)
    tr = tracing.Tracer()
    tr.install(env.fd.modules)
    loop = Loop(ops, clock)
    start = perf_counter()
    try:
        while loop.passes == 0 or perf_counter() - start < seconds:
            loop.one_pass(env, tr)
    finally:
        tr.uninstall()
    out = HERE / "out" / f"trace-{wl.name}-seed{seed}"
    tr.write(str(out))

    # layer times in reference seconds, at the run's median machine speed
    scale = clock.ref_factor()
    units = {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
    units["trace_overhead_frac"] = "ratio"
    metrics = {k: v * scale if units[k] == "s" else v
               for k, v in tr.layer_metrics(loop.attempted).items()}
    # traced over untraced time per pass, minus one: with equal failure
    # shares this is untraced ops_per_s over traced ops_per_s, minus one
    metrics["trace_overhead_frac"] = loop.pass_time() / base.pass_time() - 1
    lines = list(head)
    for name, value in metrics.items():
        per_op = name not in ("feaslp.yield", "trace_overhead_frac")
        lines.append(fmt(name, value, units[name], "per op" if per_op else ""))
    for name, target in tr.missing.items():
        lines.append(f"missing: wrapper {name} (target {target} not found); "
                     "metrics that need it are not reported")
    for layer, ns in sorted(tr.self_ns.items()):
        lines.append(fmt(f"self time {layer}",
                         ns * tracing.NS * scale / loop.attempted, "s",
                         "per op"))
    lines.append(f"{len(tr.s_name)} spans over {loop.attempted} ops in "
                 f"{loop.passes} traced passes written to {out}.bin/.json")
    lines += base.check_lines("untraced pass: ") + loop.check_lines()
    emit(lines, loop.correct and base.correct, loop.attempted, loop.failed,
         metrics, units)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one small op per workload (self-test)")
    args = ap.parse_args(argv)

    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    if args.workload not in table:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(table)}")
    if not (SRC / "fandist" / "pipeline.py").is_file():
        print(f"error: no fandist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = table[args.workload]
    ops = wl.pass_list(args.seed)
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    missing = [s.key for s in ops if s.key not in reference]
    if missing:
        print(f"error: no reference digest for {missing}", file=sys.stderr)
        return 2

    head = [f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
            f"closed loop, 1 client, workers=1, {len(ops)} ops per pass",
            "pass: " + " ".join(s.key for s in ops)]
    if args.trace:
        run_traced(wl, ops, args.seconds, head, args.seed)
    else:
        run_untraced(wl, ops, args.seconds, head)
    return 0


if __name__ == "__main__":
    sys.exit(main())
