"""Command-line entry point.

Subcommands:

* ``generate`` — write a Zipf-distributed binary trace
* ``attack``   — size and write a slot-saturation attack trace
* ``run``      — drive schemes over traces, write metric/counter reports
* ``theory``   — print closed-form attack and wrap-split numbers

``run --config FILE`` reads spec fields from a JSON file. Each flag given
overrides its own field, and ``--width`` also drops the file's
``memory_bytes`` (a ``--memory-bytes`` flag still applies).

Failures exit nonzero and print one JSON object ``{"error": <class>,
"detail": <message>}`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

from .analysis import coupon_expect, hyper_mean, hyper_pmf, hyper_var
from .experiment import ALL_APPS, SCHEMES, ExperimentSpec, run_experiment
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
        flag = getattr(args, f.name)
        if flag is not None:
            values[f.name] = flag.split(",") if f.name in ("schemes", "apps") else flag
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
            targets = args.m
        else:
            scaled = width * args.fraction
            if not math.isfinite(scaled):
                raise ValueError("fraction must be finite")
            targets = round(scaled)
        expected = coupon_expect(width, targets)
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
        p.add_argument("--schemes", help=f"comma list of {','.join(SCHEMES)}")
        p.add_argument("--rows", type=int)
        p.add_argument("--width", type=int)
        p.add_argument("--memory-bytes", dest="memory_bytes", type=int)
        p.add_argument("--counter-bits", dest="counter_bits", type=int)
        p.add_argument("--shared-bits", dest="shared_bits", type=int)
        p.add_argument("--merge-mode", dest="merge_mode", choices=("sum", "max"))
        p.add_argument("--benign", help="benign trace path")
        p.add_argument("--attack", help="attack trace path")
        p.add_argument("--attack-fraction", dest="attack_fraction", type=float)
        p.add_argument("--interleave", choices=("shuffle", "append"))
        p.add_argument("--snapshot-interval", dest="snapshot_interval", type=int)
        p.add_argument("--apps", help=f"comma list of {','.join(ALL_APPS)}")
        p.add_argument("--threshold", type=int)
        p.add_argument(
            "--threshold-fraction", dest="threshold_fraction", type=float
        )
        p.add_argument("--seed", type=int)
        p.add_argument("--experiment-id", dest="experiment_id")

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
