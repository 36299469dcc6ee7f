"""Command-line interface.

Exit codes: 0 success/verified, 1 none-found, 2 user error (a violated
precondition, an unreadable file or malformed JSON), 3 size gate, 4 any
other error (a bug signal).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from fandist.errors import PreconditionError, SizeGateExceeded
from fandist.fans import fan_from_json, verify_report
from fandist.galedual import (
    PointConfig,
    gale_transform,
    inverse_gale,
)
from fandist.genpos import (
    SGP_GATE,
    build_counterexample,
    check_sgp,
    found_equidistributing_tuple,
    is_typical,
    random_config,
)
from fandist.kneser import ColoringCertificate, SetFamily, m_eligible
from fandist.pipeline import (
    bounds_experiment,
    canonical_json,
    equidistribute,
    pierce,
    rainbow,
    two_fans,
)
from fandist.tverberg import DEFAULT_LP_GATE, search_tuple

EXIT_OK = 0
EXIT_NONE = 1
EXIT_PRECONDITION = 2
EXIT_GATE = 3
EXIT_BUG = 4


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_output(obj, path):
    text = canonical_json(obj)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_config(args) -> PointConfig:
    return PointConfig.from_json(_read_json(args.input))


def _cmd_gale(args):
    pair = gale_transform(_load_config(args))
    _write_output({"dual": pair.dual.to_json()}, args.output)
    return EXIT_OK


def _cmd_inverse_gale(args):
    primal = inverse_gale(_load_config(args))
    _write_output({"primal": primal.to_json()}, args.output)
    return EXIT_OK


def _cmd_tverberg(args):
    cfg = _load_config(args)
    tup = search_tuple(cfg, args.r, lp_gate=args.gate)
    if tup is None:
        print("none", file=sys.stderr)
        return EXIT_NONE
    _write_output({"tuple": tup.to_json()}, args.output)
    return EXIT_OK


def _finish_driver(result, args):
    """Exit 1 on no result; else print its warnings, write its JSON."""
    if result is None:
        print("none", file=sys.stderr)
        return EXIT_NONE
    for msg in result.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    _write_output(result.to_json(), args.output)
    return EXIT_OK


def _run_single_fan(args, runner):
    cfg = _load_config(args)
    return _finish_driver(runner(cfg, args.r, lp_gate=args.gate), args)


def _cmd_equidistribute(args):
    return _run_single_fan(args, equidistribute)


def _cmd_pierce(args):
    cert = ColoringCertificate.from_json(_read_json(args.certificate))
    return _run_single_fan(
        args, lambda cfg, r, **kw: pierce(cfg, cert.family, cert, r, **kw))


def _cmd_rainbow(args):
    return _run_single_fan(args, rainbow)


def _cmd_two_fans(args):
    cfg = _load_config(args)
    cert = None
    if args.certificate is not None:
        cert = ColoringCertificate.from_json(_read_json(args.certificate))
    return _finish_driver(
        two_fans(cfg, args.r, certificate=cert, lp_gate=args.gate), args)


def _cmd_verify_fan(args):
    cfg = _load_config(args)
    fan = fan_from_json(_read_json(args.fan))
    family = None
    if args.family is not None:
        family = SetFamily.from_json(_read_json(args.family))
    other = None
    if args.other_fan is not None:
        other = fan_from_json(_read_json(args.other_fan))
    report = verify_report(fan, cfg, args.mode, family=family,
                           other_fan=other)
    _write_output(report.to_json(), args.output)
    return EXIT_OK if report.passes else EXIT_NONE


def _cmd_check_sgp(args):
    cfg = _load_config(args)
    report = check_sgp(cfg, gate=args.gate)
    _write_output(report.to_json(), args.output)
    return EXIT_OK if report.verdict else EXIT_NONE


def _cmd_typical(args):
    cfg = _load_config(args)
    verdict = is_typical(cfg, gate=args.gate)
    _write_output({"typical": verdict}, args.output)
    return EXIT_OK if verdict else EXIT_NONE


def _cmd_counterexample(args):
    inst = build_counterexample(args.r, args.m, args.d, args.k, args.ell,
                                seed=args.seed)
    tup = found_equidistributing_tuple(inst, lp_gate=args.gate)
    verified = tup is None
    out = inst.to_json()
    out["no_equidistribution"] = verified
    if not verified:
        out["equidistributing_tuple"] = tup.to_json()
    _write_output(out, args.output)
    return EXIT_OK if verified else EXIT_NONE


def _cmd_bounds(args):
    rows = bounds_experiment(args.r, args.m, args.d_values,
                             list(range(args.seeds)), lp_gate=args.gate)
    _write_output({"rows": rows}, args.output)
    return EXIT_OK


def _cmd_gen_random(args):
    field = "rational"
    if args.field.startswith("cyclotomic:"):
        field = args.field.split(":", 1)[1]
        if not field.isdecimal() or int(field) < 1:
            raise PreconditionError(f"--field: bad conductor {field!r}")
        field = int(field)
    elif args.field != "rational":
        raise PreconditionError(f"unknown field {args.field!r}")
    if args.bits < 1:
        raise PreconditionError("--bits must be at least 1")
    coloring = None
    if args.classes:
        sizes = args.classes.split(",")
        if not all(x.isdecimal() for x in sizes):
            raise PreconditionError(f"--classes: bad sizes {args.classes!r}")
        sizes = [int(x) for x in sizes]
        if sum(sizes) != args.n:
            raise PreconditionError("class sizes must sum to n")
        coloring = []
        for k, size in enumerate(sizes):
            coloring.extend([k] * size)
    cfg = random_config(args.n, args.dim, field, args.bits, args.seed,
                        coloring=coloring)
    _write_output(cfg.to_json(), args.output)
    return EXIT_OK


def _cmd_m_eligible(args):
    ok, digits = m_eligible(args.m, args.r)
    _write_output({"m": args.m, "r": args.r, "eligible": ok,
                   "digits": digits}, args.output)
    return EXIT_OK if ok else EXIT_NONE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fandist",
        description="exact fan distributions of colored point sets")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *, needs_input=True, needs_r=False, gate=None,
               seed=False):
        """Shared flags: --gate defaults to ``gate`` (None omits it),
        ``seed`` adds --seed."""
        if needs_input:
            p.add_argument("--input", required=True,
                           help="PointConfig JSON file")
        if needs_r:
            p.add_argument("--r", type=int, required=True,
                           help="number of half-flats")
        p.add_argument("--output", default=None, help="result JSON file")
        if gate is not None:
            p.add_argument("--gate", type=int, default=gate,
                           help="size gate: exact feasibility checks; "
                                "for check-sgp and typical, points")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gale", help="Gale transform of a configuration")
    common(p)
    p.set_defaults(func=_cmd_gale)

    p = sub.add_parser("inverse-gale", help="inverse Gale transform")
    common(p)
    p.set_defaults(func=_cmd_inverse_gale)

    p = sub.add_parser("tverberg", help="search a proper Tverberg tuple")
    common(p, needs_r=True, gate=DEFAULT_LP_GATE)
    p.set_defaults(func=_cmd_tverberg)

    p = sub.add_parser("equidistribute", help="equidistributing r-fan")
    common(p, needs_r=True, gate=DEFAULT_LP_GATE)
    p.set_defaults(func=_cmd_equidistribute)

    p = sub.add_parser("pierce", help="piercing distribution")
    common(p, needs_r=True, gate=DEFAULT_LP_GATE)
    p.add_argument("--certificate", required=True,
                   help="chromatic certificate JSON (carries the family)")
    p.set_defaults(func=_cmd_pierce)

    p = sub.add_parser("rainbow", help="rainbow distribution")
    common(p, needs_r=True, gate=DEFAULT_LP_GATE)
    p.set_defaults(func=_cmd_rainbow)

    p = sub.add_parser("two-fans", help="two-fan distribution")
    common(p, needs_r=True, gate=DEFAULT_LP_GATE)
    p.add_argument("--certificate", default=None,
                   help="r^2 chromatic certificate JSON, carrying the "
                        "family: selects pierce mode")
    p.set_defaults(func=_cmd_two_fans)

    p = sub.add_parser("verify-fan", help="verify a fan against points")
    common(p)
    p.add_argument("--fan", required=True, help="fan JSON file")
    p.add_argument("--mode", default="distribute",
                   choices=["distribute", "equidistribute", "pierce",
                            "rainbow", "two-fan"])
    p.add_argument("--family", default=None,
                   help="family JSON (pierce, two-fan)")
    p.add_argument("--other-fan", default=None,
                   help="second fan JSON (two-fan mode)")
    p.set_defaults(func=_cmd_verify_fan)

    p = sub.add_parser("check-sgp", help="strong general position check")
    common(p, gate=SGP_GATE)
    p.set_defaults(func=_cmd_check_sgp)

    p = sub.add_parser("typical", help="typicality check")
    common(p, gate=SGP_GATE)
    p.set_defaults(func=_cmd_typical)

    p = sub.add_parser("counterexample",
                       help="build and verify a sharpness instance")
    common(p, needs_input=False, needs_r=True, gate=DEFAULT_LP_GATE,
           seed=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("bounds", help="bracket the equidistribution size")
    common(p, needs_input=False, needs_r=True, gate=DEFAULT_LP_GATE)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d-values", type=int, nargs="+", required=True)
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("gen-random", help="random point configuration")
    common(p, needs_input=False, seed=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--field", default="rational",
                   help="rational | cyclotomic:N")
    p.add_argument("--bits", type=int, default=8)
    p.add_argument("--classes", default=None,
                   help="comma-separated class sizes summing to n")
    p.set_defaults(func=_cmd_gen_random)

    p = sub.add_parser("m-eligible", help="digit condition for two fans")
    common(p, needs_input=False, needs_r=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_m_eligible)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeGateExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (PreconditionError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        # anything else is a bug: report it with its traceback
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
