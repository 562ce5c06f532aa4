"""Command-line entry point.

Subcommands:

* ``generate`` — write a Zipf-distributed binary trace
* ``attack``   — size and write a slot-saturation attack trace
* ``run``      — drive schemes over traces, write metric/counter reports
* ``theory``   — print closed-form attack and wrap-split numbers

The ``run`` flags are the fields of ``ExperimentSpec``, one flag per field
(``--memory-bytes`` for ``memory_bytes``), each parsed as the field's
annotation says: an integer, a real number, a comma list for ``schemes`` and
``apps``, or a string. ``run --config FILE`` reads spec fields from a JSON
file. Each flag given overrides its own field, and ``--width`` also drops the
file's ``memory_bytes`` (a ``--memory-bytes`` flag still applies).

The spec checks every value, from a flag or a file alike: a bad
``--merge-mode`` or ``--interleave`` is a ``bad-arguments`` error (exit 1),
as the same value in a ``--config`` file is. The shape fields (``--rows``,
``--width``, ``--memory-bytes``, ``--counter-bits``, ``--shared-bits``,
``--merge-mode``) are checked when the spec is built, for every scheme list:
``--schemes count-min --counter-bits 100`` is refused too. A flag whose text does not
parse as its type (``--rows abc``) is still a usage error (exit 2).
``schemes`` must name at least one scheme, while an empty ``apps`` list still
takes the counter census and scores nothing. A run whose traces hold no
packet is refused.

Failures exit nonzero and print one JSON object ``{"error": <class>,
"detail": <message>}`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .analysis import coupon_expect, hyper_mean, hyper_pmf, hyper_var
from .experiment import ExperimentSpec, run_experiment
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


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    values = json.loads(Path(args.config).read_text()) if args.config else {}
    if args.width is not None:
        values.pop("memory_bytes", None)
    for f in fields(ExperimentSpec):
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
    return ExperimentSpec(**values)


def cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    result = run_experiment(spec)
    paths = result.save(args.out)
    print(f"{len(result.metric_rows)} metric rows -> {paths['metrics_csv']}")
    print(f"{len(result.counter_rows)} counter rows -> {paths['counters_csv']}")
    return 0


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
    for i in range(max(0, args.n - args.s2), min(args.n, args.s1) + 1):
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

    def add_spec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--config",
            help="JSON file of spec fields; each flag overrides its field, and "
            "--width also drops the file's memory_bytes",
        )
        # one flag per spec field, parsed as the field's annotation says
        hints = get_type_hints(ExperimentSpec)
        for f in fields(ExperimentSpec):
            flag, hint = "--" + f.name.replace("_", "-"), hints[f.name]
            if get_origin(hint) is tuple:
                doc = f"comma list of {','.join(f.default)}"
                p.add_argument(flag, type=lambda text: text.split(","), help=doc)
                continue
            kinds = get_args(hint) or (hint,)
            p.add_argument(flag, type=int if int in kinds else float if float in kinds else str)

    run = sub.add_parser("run", help="run an experiment, write reports")
    add_spec_args(run)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TraceError, SnapshotError) as exc:
        return _fail(exc.code, str(exc))
    except (ValueError, TypeError) as exc:
        return _fail("bad-arguments", str(exc))
    except OSError as exc:
        return _fail("io-error", str(exc))


if __name__ == "__main__":
    sys.exit(main())
