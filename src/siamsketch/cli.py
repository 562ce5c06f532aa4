"""Command-line entry point.

Subcommands:

* ``generate`` — write a Zipf-distributed binary trace
* ``attack``   — size and write a slot-saturation attack trace
* ``run``      — drive schemes over traces, write metric/counter reports
* ``theory``   — print closed-form attack and wrap-split numbers; ``theory
  hyper`` tabulates a support of at most ``HYPER_TABLE_MAX`` values and
  prints the ends of a wider one

The ``run`` flags are the fields of ``ExperimentSpec``, one flag per field
(``--memory-bytes`` for ``memory_bytes``), each read as the field's rule in
``ExperimentSpec.RULES`` says: an integer, a real number, a comma list for
``schemes`` and ``apps`` (``''`` is the empty list), or a string. ``run
--config FILE`` reads spec fields from a JSON object, whose every key must
name a field. Each flag given overrides its own field, and ``--width`` also
drops the file's ``memory_bytes`` (a ``--memory-bytes`` flag still applies).

The spec checks every value, from a flag or a file alike: a bad
``--merge-mode`` or ``--interleave`` is refused, as the same value in a
``--config`` file is. The shape fields (``--rows``, ``--width``,
``--memory-bytes``, ``--counter-bits``, ``--shared-bits``, ``--merge-mode``)
are checked when the spec is built, for every scheme list: ``--schemes
count-min --counter-bits 100`` is refused too. A flag whose text does not
parse as its type (``--rows abc``) is a usage error (exit 2). ``schemes``
must name at least one scheme, while an empty ``apps`` list still takes the
counter census and scores nothing. A run whose traces hold no packet is
refused.

Other failures exit 1 and print one JSON object ``{"error": <code>, "detail":
<message>}`` on stderr. Each typed error has its code: a refused input
(``rules.SpecError``: a value its field's rule refuses, a ``--config`` that
is not a JSON object of spec fields) is ``bad-arguments``, and its detail
names the field; a trace file that breaks the format (``TraceError``) and a
snapshot that does (``SnapshotError``) carry their own codes; a file that
cannot be read or written (``OSError``) is ``io-error``. Any other exception
is a bug, and it escapes as a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import coupon_expect, hyper_mean, hyper_pmf, hyper_var
from .experiment import ExperimentSpec, run_experiment
from .rules import SpecError
from .snapshot import SnapshotError
from .traffic import (
    ROUND_ROBIN,
    SEQUENTIAL,
    TraceError,
    ZipfConfig,
    gen_attack,
    gen_zipf,
    plan_attack,
    write_trace,
)


def _fail(code: str, detail: str) -> int:
    print(json.dumps({"error": code, "detail": detail}), file=sys.stderr)
    return 1


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = ZipfConfig(
        skew=args.zipf, flows=args.flows, packets=args.packets, seed=args.seed
    )
    trace = gen_zipf(cfg)
    write_trace(args.out, trace)
    print(f"wrote {len(trace)} packets over {cfg.flows} flows to {args.out}")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    plan = plan_attack(
        args.width,
        args.fraction,
        packets_per_flow=args.packets_per_flow,
        interleave=args.interleave,
    )
    trace = gen_attack(plan, args.seed)
    write_trace(args.out, trace)
    print(
        f"targets {plan.targets}/{plan.width} slots: "
        f"{plan.flows} flows x {plan.packets_per_flow} packets "
        f"(expected flows {plan.expected_flows:.1f}) -> {args.out}"
    )
    return 0


def _read_config(path: str) -> dict:
    """The spec fields in the JSON file at ``path``: an object whose every
    key names a field."""
    try:
        values = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:  # not JSON, or not Unicode
        raise SpecError("config", f"config {path} is not JSON: {exc}") from None
    if not isinstance(values, dict):
        raise SpecError("config", f"config must be a JSON object of spec fields, not "
                        f"{type(values).__name__}")
    for name in values:
        if name not in ExperimentSpec.RULES:
            raise SpecError(name, f"config names {name!r}, which is no spec field")
    return values


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    values = _read_config(args.config) if args.config else {}
    if args.width is not None:
        values.pop("memory_bytes", None)
    for name in ExperimentSpec.RULES:
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    return ExperimentSpec(**values)


def cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    result = run_experiment(spec)
    paths = result.save(args.out)
    print(f"{len(result.metric_rows)} metric rows -> {paths['metrics_csv']}")
    print(f"{len(result.counter_rows)} counter rows -> {paths['counters_csv']}")
    return 0


# The most support values ``theory hyper`` prints a line for (about 0.1 s of
# output); a wider support prints its ends instead of the table.
HYPER_TABLE_MAX = 10_000


def cmd_theory(args: argparse.Namespace) -> int:
    if args.theory_cmd == "coupon":
        width = args.width
        if args.m is not None:
            targets, expected = args.m, coupon_expect(width, args.m)
        else:
            plan = plan_attack(width, args.fraction)
            targets, expected = plan.targets, plan.expected_flows
        print(f"width={width} targets={targets} expected_flows={expected:.6g}")
        return 0
    mean = hyper_mean(args.s1, args.s2, args.n)
    var = hyper_var(args.s1, args.s2, args.n)
    print(f"wrap-split pmf for sides ({args.s1}, {args.s2}), draws {args.n}:")
    low, high = max(0, args.n - args.s2), min(args.n, args.s1)
    if high - low + 1 > HYPER_TABLE_MAX:
        print(f"  support X1 in [{low}, {high}]: {high - low + 1} values, "
              f"table omitted above {HYPER_TABLE_MAX}")
    else:
        for i in range(low, high + 1):
            print(f"  P(X1={i}) = {hyper_pmf(args.s1, args.s2, args.n, i):.12g}")
    print(f"mean = {mean:.12g}")
    print(f"var  = {var:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="siamsketch")
    sub = parser.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("generate", help="write a Zipf trace")
    gen.add_argument("--zipf", type=float, required=True, help="skew, 0 = uniform")
    gen.add_argument("--flows", type=int, required=True)
    gen.add_argument("--packets", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    atk = sub.add_parser("attack", help="write a slot-saturation trace")
    atk.add_argument("--width", type=int, required=True)
    atk.add_argument("--fraction", type=float, required=True)
    atk.add_argument("--packets-per-flow", type=int, default=256)
    atk.add_argument("--interleave", choices=(SEQUENTIAL, ROUND_ROBIN), default=SEQUENTIAL)
    atk.add_argument("--seed", type=int, default=0)
    atk.add_argument("--out", required=True)
    atk.set_defaults(func=cmd_attack)

    run = sub.add_parser("run", help="run an experiment, write reports")
    run.add_argument(
        "--config",
        help="JSON file of spec fields; each flag overrides its field, and "
        "--width also drops the file's memory_bytes",
    )
    # one flag per spec field, read as the field's rule says
    for name, rule in ExperimentSpec.RULES.items():
        run.add_argument("--" + name.replace("_", "-"), type=rule.parse, help=rule.doc)
    run.add_argument("--out", required=True, help="report directory")
    run.set_defaults(func=cmd_run)

    theory = sub.add_parser("theory", help="closed-form numbers")
    tsub = theory.add_subparsers(dest="theory_cmd", required=True)
    coupon = tsub.add_parser("coupon")
    coupon.add_argument("--width", "--w", dest="width", type=int, required=True)
    group = coupon.add_mutually_exclusive_group(required=True)
    group.add_argument("--fraction", type=float)
    group.add_argument("--m", type=int)
    hyper = tsub.add_parser("hyper")
    hyper.add_argument("--s1", type=int, required=True)
    hyper.add_argument("--s2", type=int, required=True)
    hyper.add_argument("--n", type=int, required=True)
    theory.set_defaults(func=cmd_theory)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, TraceError, SnapshotError) as exc:
        return _fail(exc.code, str(exc))
    except OSError as exc:
        return _fail("io-error", str(exc))


if __name__ == "__main__":
    sys.exit(main())
