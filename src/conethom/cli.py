"""Command line entry point.

Subcommands:
  gen                write a generated instance file
  check SUITE        run one identity suite (or "all") on an instance file
                     or on a seeded batch of generated instances
  classical-compare  check the zero-twist degeneration against the
                     independent classical single-form pipeline

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
input error (bad flags, unreadable file, invariant-violating instance).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields

from .cone import EndomorphismField
from .forms import Form
from .instances import (
    GenConfig,
    InstanceFile,
    generate,
    load_instance,
    save_instance,
    seed_sequence,
)
from .report import SUITES, VerificationReport, run_check, run_suite
from .thom import ConnectionData

REPORT_SCHEMA = "conethom.report/v1"

# every generator field is a flag except the coefficient bound, which
# generated instances always take at its default
_GEN_FIELDS = [f for f in fields(GenConfig) if f.name != "coeff_bound"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conethom",
        description="exact verifier for mapping-cone Thom form identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    _add_gen_flags(gen, required=True)
    gen.add_argument("--out", help="output path (default: stdout)")

    check = sub.add_parser("check", help="run an identity suite")
    check.add_argument("suite", choices=sorted(SUITES))
    check.add_argument("--instance", help="instance file to verify")
    _add_gen_flags(check, required=False)
    check.add_argument("--count", type=int, default=1, help="number of derived seeds (splitmix64 stream)")
    check.add_argument("--format", choices=("json", "text"), default="text")
    check.add_argument("--out", help="report path (default: stdout)")

    classical = sub.add_parser(
        "classical-compare",
        help="zero-twist degeneration vs the classical single-form pipeline",
    )
    classical.add_argument("--instance", help="instance file (must have zero twist and endomorphism)")
    _add_gen_flags(classical, required=False)
    classical.add_argument("--count", type=int, default=1)
    classical.add_argument("--format", choices=("json", "text"), default="text")
    classical.add_argument("--out", help="report path (default: stdout)")
    return parser


def _add_gen_flags(parser: argparse.ArgumentParser, *, required: bool) -> None:
    for f in _GEN_FIELDS:
        flag = "--" + f.name.replace("_", "-")
        if f.default is MISSING:
            parser.add_argument(flag, type=int, required=required)
        else:
            parser.add_argument(flag, type=int, default=f.default)


def _config(args, seed: int) -> GenConfig:
    values = {f.name: getattr(args, f.name) for f in _GEN_FIELDS}
    values["seed"] = seed
    return GenConfig(**values)


def _batch_configs(args) -> list[GenConfig]:
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    seeds = [args.seed] if args.count == 1 else seed_sequence(args.seed, args.count)
    return [_config(args, seed) for seed in seeds]


def _instances_from_args(args) -> list[ConnectionData]:
    if args.instance is not None:
        if args.seed is not None or args.m is not None or args.n is not None:
            raise ValueError("--instance excludes --seed/--m/--n")
        return [load_instance(args.instance).data]
    if args.seed is None or args.m is None or args.n is None:
        raise ValueError("either --instance or all of --seed, --m, --n are required")
    return [generate(cfg) for cfg in _batch_configs(args)]


def _emit(args, reports: list[VerificationReport], command_line: str) -> int:
    reports = sorted(reports, key=lambda r: (r.fingerprint, r.check))
    if args.format == "json":
        payload = {
            "schema": REPORT_SCHEMA,
            "command": command_line,
            "reports": [r.to_obj() for r in reports],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "".join(r.text_line() + "\n" for r in reports)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_gen(args) -> int:
    config = _config(args, args.seed)
    instance = InstanceFile(data=generate(config), config=config)
    if args.out:
        save_instance(args.out, instance)
    else:
        sys.stdout.write(json.dumps(instance.to_obj(), sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_check(args) -> int:
    instances = _instances_from_args(args)
    reports: list[VerificationReport] = []
    for data in instances:
        reports.extend(run_suite(args.suite, data))
    return _emit(args, reports, f"check {args.suite}")


def _cmd_classical(args) -> int:
    instances = _instances_from_args(args)
    reports: list[VerificationReport] = []
    for data in instances:
        if args.instance is not None:
            if not (data.omega.is_zero and data.phi.is_zero):
                raise ValueError("classical-compare needs a zero twist form and zero endomorphism")
        else:
            # degenerate the generated instance, keeping its connection
            data = ConnectionData(
                data.chart,
                data.eta,
                EndomorphismField.zero(data.chart),
                Form.zero(data.chart),
            )
        reports.append(run_check("classical-compare", data))
    return _emit(args, reports, "classical-compare")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "classical-compare":
            return _cmd_classical(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
