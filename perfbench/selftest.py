"""Self-test of the benchmark: a very short run of every workload.

    python3 perfbench/selftest.py [--seconds 2]

Each workload runs once untraced and once traced.  Every run must report
``"correct": true`` and exactly the metrics ``BENCHMARK.json`` names for its
mode (end-to-end untraced, per-layer traced), each with its unit and a
finite value.  Traced runs also write their raw spans, and the span tree
must be well formed: every child lies inside its parent and every self
time is >= 0.  Exits 1 on the first problem list that is not empty.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

sys.path.insert(0, str(HERE))

from tracing import check_span_tree  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check_run(name: str, trace: int, seconds: float, spec: dict) -> list[str]:
    spans = OUT / f"spans-{name}.json"
    if spans.exists():
        spans.unlink()
    env = dict(os.environ, PERFBENCH_SPANS=str(spans))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=180,
    )
    tag = f"{name} trace={trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{tag}: exit {proc.returncode}: {proc.stderr[-1500:]}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{tag}: correct is {result.get('correct')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{tag}: attempted {result.get('attempted')}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result.get("metrics", {})
    if set(got) != set(units):
        problems.append(
            f"{tag}: missing {sorted(set(units) - set(got))}, "
            f"unexpected {sorted(set(got) - set(units))}"
        )
    for metric, unit in units.items():
        entry = got.get(metric)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{tag}: {metric} unit {entry.get('unit')} != {unit}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{tag}: {metric} value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{tag}: end-to-end {metric} is {value} (not > 0)")
    if trace:
        if not spans.exists():
            problems.append(f"{tag}: no spans written")
        else:
            tree = json.loads(spans.read_text())
            if not tree:
                problems.append(f"{tag}: the span list is empty")
            problems += [f"{tag}: {p}" for p in check_span_tree(tree)[:20]]
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    failures = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            problems = check_run(name, trace, args.seconds, spec)
            status = "ok" if not problems else "FAILED"
            print(f"{name:12s} trace={trace}: {status}", flush=True)
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
