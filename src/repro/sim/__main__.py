"""CLI for ad-hoc interconnect simulations.

Usage::

    python -m repro.sim --fibers 8 --wavelengths 16 --degree 3 --load 0.9
    python -m repro.sim --degree full --traffic bursty --burst-length 8
    python -m repro.sim --mean-duration 4 --disturb --seeds 5
"""

from __future__ import annotations

import argparse

from repro.core.base import Scheduler
from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.core.full_range import FullRangeScheduler
from repro.experiments.replication import replicate
from repro.graphs.conversion import CircularConversion, FullRangeConversion
from repro.sim.duration import DeterministicDuration, GeometricDuration
from repro.sim.engine import SlottedSimulator
from repro.sim.traffic import BernoulliTraffic, OnOffBurstyTraffic
from repro.util.tables import format_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description="Slotted simulation of a wavelength-convertible WDM "
        "optical interconnect (Zhang & Yang, IPDPS 2003).",
    )
    parser.add_argument("--fibers", type=int, default=8, help="interconnect size N")
    parser.add_argument(
        "--wavelengths", type=int, default=16, help="wavelengths per fiber k"
    )
    parser.add_argument(
        "--degree",
        default="3",
        help="conversion degree d (odd integer) or 'full'",
    )
    parser.add_argument("--load", type=float, default=0.8, help="offered load")
    parser.add_argument(
        "--traffic", choices=("bernoulli", "bursty"), default="bernoulli"
    )
    parser.add_argument(
        "--burst-length", type=float, default=5.0, help="mean burst slots (bursty)"
    )
    parser.add_argument(
        "--mean-duration",
        type=float,
        default=1.0,
        help="mean connection duration in slots (geometric; 1 = single-slot)",
    )
    parser.add_argument(
        "--disturb",
        action="store_true",
        help="allow reassigning ongoing connections (Section V)",
    )
    parser.add_argument("--slots", type=int, default=500)
    parser.add_argument("--warmup", type=int, default=50)
    parser.add_argument(
        "--seeds", type=int, default=1, help="replications (adds CIs when > 1)"
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="use the vectorized fast path (plain Bernoulli duration-1 "
        "traffic only; wavelength-level statistics)",
    )
    return parser


def _make_run(args: argparse.Namespace):
    k = args.wavelengths
    if args.degree == "full":
        scheme = FullRangeConversion(k)
        scheduler: Scheduler = FullRangeScheduler()
    else:
        d = int(args.degree)
        e = (d - 1) // 2
        scheme = CircularConversion(k, e, d - 1 - e)
        scheduler = BreakFirstAvailableScheduler()
    durations = (
        DeterministicDuration(1)
        if args.mean_duration == 1.0
        else GeometricDuration(args.mean_duration)
    )

    def run(seed: int):
        if args.traffic == "bernoulli":
            traffic = BernoulliTraffic(
                args.fibers, k, args.load, durations=durations
            )
        else:
            traffic = OnOffBurstyTraffic(
                args.fibers, k, args.load, args.burst_length, durations=durations
            )
        if args.fast:
            from repro.errors import SimulationError
            from repro.sim.fast import FastPacketSimulator

            if args.disturb or args.traffic != "bernoulli" or args.mean_duration != 1.0:
                raise SimulationError(
                    "--fast supports plain Bernoulli duration-1 traffic "
                    "without --disturb"
                )
            fast = FastPacketSimulator(args.fibers, scheme, traffic, seed=seed)
            return fast.run(args.slots, warmup=args.warmup)
        sim = SlottedSimulator(
            args.fibers,
            scheme,
            scheduler,
            traffic,
            disturb=args.disturb,
            seed=seed,
        )
        return sim.run(args.slots, warmup=args.warmup)

    return run


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run = _make_run(args)
    metric_names = (
        "loss_probability",
        "acceptance_ratio",
        "utilization",
        "normalized_throughput",
        "source_block_probability",
        "input_fairness",
    )
    if args.seeds == 1:
        summary = run(0).summary()
        rows = [(name, summary[name]) for name in metric_names]
        print(format_table(["metric", "value"], rows, float_fmt=".4f"))
    else:
        report = replicate(run, seeds=args.seeds)
        print(
            format_table(
                ["metric", "mean", "ci lo", "ci hi"],
                report.rows(metric_names),
                title=f"{args.seeds} replications, 95% CI",
                float_fmt=".4f",
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
