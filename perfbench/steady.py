"""Run one workload N times and report how steady each metric is.

    python3 perfbench/steady.py --workload tcp-perfd --runs 10 [--seconds S]
        [--first-seed 1] [--trace 0|1]

Each run is a separate ``run.py`` process with its own seed (``first-seed``,
``first-seed + 1``, ...).  For every metric the table gives the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median.  With
``--trace 0`` it also shows each end-to-end metric's bound from
``BENCHMARK.json`` and flags a spread above a third of it, and adds the
timing metrics as measured before the machine-speed scaling
(``unscaled.*``, from each run's facts).  Exits 1 if any run fails or
reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            continue
        result = json.loads(lines[-1])
        ok &= bool(result["correct"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"({time.perf_counter() - started:.1f} s)", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        # The same timings before the machine-speed scaling, for comparison.
        facts = json.loads(lines[-2]).get("facts", {}) if len(lines) > 1 else {}
        for name, value in facts.get("unscaled", {}).items():
            values.setdefault(f"unscaled.{name}", []).append(value)
            units[f"unscaled.{name}"] = units.get(name, "")

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        median, q1, q3, s = spread(vals)
        bound = bounds.get(name) if not args.trace else None
        flag = ""
        if bound is not None:
            flag = f"{bound:6.2f}" + ("  > bound/3" if s > bound / 3 else "")
        print(f"{name:44s} {median:12.4f} {q1:12.4f} {q3:12.4f} {s:7.3f} "
              f"{flag} {units[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
