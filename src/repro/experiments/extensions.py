"""Extension experiments beyond the paper's explicit artifacts.

* ``QOS`` — the paper's stated future work: strict-priority scheduling.
* ``ANALYT`` — exact analytical loss models at the two bracketing degrees
  (d = 1 and d = k) validating the whole simulation pipeline.
* ``BATCH`` — vectorized batch scheduling across output fibers
  (the software analogue of per-output hardware parallelism).
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.analytical import (
    full_range_loss_probability,
    loss_bounds,
    no_conversion_loss_probability,
)
from repro.core.break_first_available import (
    BreakFirstAvailableScheduler,
    bfa_fast,
)
from repro.core.first_available import first_available_fast
from repro.core.full_range import FullRangeScheduler
from repro.core.kernels import batch_break_first_available, batch_first_available
from repro.core.priority import PriorityScheduler
from repro.experiments.registry import ExperimentResult, experiment
from repro.graphs.conversion import CircularConversion, FullRangeConversion
from repro.sim.engine import SlottedSimulator
from repro.sim.traffic import BernoulliTraffic
from repro.util.rng import make_rng
from repro.util.tables import format_table

__all__ = ["qos_priorities", "analytical_validation", "batch_vectorization"]


@experiment("QOS", "Strict-priority scheduling (the paper's future work)")
def qos_priorities(trials: int = 200, seed: int = 1111) -> ExperimentResult:
    """Two priority classes on one output fiber: high-class loss must be
    unaffected by low-class load; per-class schedules stay maximal."""
    scheme = CircularConversion(16, 1, 1)
    prio = PriorityScheduler(BreakFirstAvailableScheduler())
    rows = []
    checks: dict[str, bool] = {}
    high_only_loss = None
    # The high-priority workload must be the *same* across low-load settings
    # for the independence check to be meaningful: regenerate it from a
    # fixed stream, with a separate stream for the low class.
    for low_load in (0.0, 0.4, 0.8):
        high_rng = make_rng(seed)
        low_rng = make_rng(seed + 1)
        high_dropped = low_dropped = high_total = low_total = 0
        for _ in range(trials):
            high = high_rng.binomial(16, 0.5 / 16, size=16)
            low = low_rng.binomial(16, low_load / 16 + 1e-12, size=16)
            sched = prio.schedule(scheme, [high.tolist(), low.tolist()])
            high_total += int(high.sum())
            low_total += int(low.sum())
            high_dropped += sched.per_class[0].n_rejected
            low_dropped += sched.per_class[1].n_rejected
        high_loss = high_dropped / high_total if high_total else 0.0
        low_loss = low_dropped / low_total if low_total else 0.0
        if low_load == 0.0:
            high_only_loss = high_loss
        rows.append((low_load, high_loss, low_loss))
    assert high_only_loss is not None
    checks["high-priority loss independent of low-priority load"] = all(
        abs(r[1] - high_only_loss) < 1e-12 for r in rows
    )
    checks["low-priority class bears the contention"] = rows[-1][2] > rows[-1][1]
    table = format_table(
        ["low-class load", "high-class loss", "low-class loss"],
        rows,
        title="Strict two-class priority, k=16, d=3, high-class load 0.5",
        float_fmt=".4f",
    )

    # End-to-end: the same behaviour through the full simulator stack
    # (traffic classes → distributed layering → per-class metrics).
    from repro.sim.engine import SlottedSimulator
    from repro.sim.traffic import BernoulliTraffic

    sim = SlottedSimulator(
        4,
        scheme,
        BreakFirstAvailableScheduler(),
        BernoulliTraffic(4, 16, load=0.95, priority_weights=[0.3, 0.7]),
        seed=seed,
    )
    sim_loss = sim.run(250, warmup=30).metrics.loss_by_class()
    table2 = format_table(
        ["QoS class", "simulated loss"],
        sorted(sim_loss.items()),
        title="Simulated 4×4 switch, k=16, d=3, load 0.95, classes 30%/70%",
        float_fmt=".4f",
    )
    checks["simulated high class loses far less than low class"] = (
        sim_loss[0] < 0.2 * max(sim_loss[1], 1e-9)
    )

    notes = (
        "Paper conclusion: 'Interesting future work may include incorporating "
        "different QoS requirements, such as different priorities'.",
    )
    return ExperimentResult(
        "QOS", "Priority scheduling", (table, table2), checks, notes
    )


@experiment("ANALYT", "Analytical loss models vs simulation (exact at d=1, d=k)")
def analytical_validation(
    n_fibers: int = 8, k: int = 12, slots: int = 600, seed: int = 2222
) -> ExperimentResult:
    """Simulated loss must match the exact closed forms at the bracketing
    degrees and stay inside the bracket in between."""
    rows = []
    checks: dict[str, bool] = {}
    for load in (0.6, 0.9):
        analytic_full = full_range_loss_probability(n_fibers, k, load)
        analytic_none = no_conversion_loss_probability(n_fibers, load)

        sim_full = SlottedSimulator(
            n_fibers,
            FullRangeConversion(k),
            FullRangeScheduler(),
            BernoulliTraffic(n_fibers, k, load),
            seed=seed,
        ).run(slots, warmup=30).metrics.loss_probability
        sim_none = SlottedSimulator(
            n_fibers,
            CircularConversion(k, 0, 0),
            BreakFirstAvailableScheduler(),
            BernoulliTraffic(n_fibers, k, load),
            seed=seed,
        ).run(slots, warmup=30).metrics.loss_probability
        sim_d3 = SlottedSimulator(
            n_fibers,
            CircularConversion(k, 1, 1),
            BreakFirstAvailableScheduler(),
            BernoulliTraffic(n_fibers, k, load),
            seed=seed,
        ).run(slots, warmup=30).metrics.loss_probability

        lo, hi = loss_bounds(n_fibers, k, load)
        rows.append((load, "d=1", analytic_none, sim_none))
        rows.append((load, "d=3", float("nan"), sim_d3))
        rows.append((load, f"d=k={k}", analytic_full, sim_full))
        checks[f"simulated d=k matches closed form (load {load})"] = (
            abs(sim_full - analytic_full) < 0.02
        )
        checks[f"simulated d=1 matches closed form (load {load})"] = (
            abs(sim_none - analytic_none) < 0.02
        )
        checks[f"simulated d=3 inside the analytic bracket (load {load})"] = (
            lo - 0.01 <= sim_d3 <= hi + 0.01
        )
    table = format_table(
        ["load", "degree", "analytical loss", "simulated loss"],
        rows,
        title=f"Analytical vs simulated loss, N={n_fibers}, k={k}",
        float_fmt=".4f",
    )
    return ExperimentResult(
        "ANALYT", "Analytical validation", (table,), checks
    )


@experiment("BATCH", "Vectorized batch scheduling across output fibers")
def batch_vectorization(
    n_outputs: int = 256, k: int = 64, seed: int = 3333
) -> ExperimentResult:
    """NumPy-vectorized FA over M outputs equals the per-output scalar pass
    and is faster for large M (the software analogue of the paper's
    per-output hardware parallelism)."""
    rng = make_rng(seed)
    req = rng.binomial(16, 0.9 / 16, size=(n_outputs, k))
    avail = rng.random((n_outputs, k)) > 0.1
    e = f = 2

    t0 = time.perf_counter()
    assign = batch_first_available(req, avail, e, f)
    t_batch = time.perf_counter() - t0

    t0 = time.perf_counter()
    scalar_sizes = []
    for m in range(n_outputs):
        grants = first_available_fast(
            req[m].tolist(), avail[m].tolist(), e, f
        )
        scalar_sizes.append(len(grants))
    t_scalar = time.perf_counter() - t0

    batch_sizes = (assign >= 0).sum(axis=1)
    identical = bool(np.array_equal(batch_sizes, np.asarray(scalar_sizes)))
    speedup = t_scalar / t_batch

    # Circular counterpart: batch BFA vs per-row bfa_fast at larger M.  The
    # batch entry point runs the scalar list sweep at every M, so this
    # ratio is bfa_fast's per-row call and Grant overhead, not NumPy.
    m_bfa = max(n_outputs, 1024)
    req_c = rng.binomial(16, 0.9 / 16, size=(m_bfa, k))
    avail_c = rng.random((m_bfa, k)) > 0.1
    t0 = time.perf_counter()
    assign_c = batch_break_first_available(req_c, avail_c, e, f)
    t_batch_c = time.perf_counter() - t0
    t0 = time.perf_counter()
    scalar_c = []
    for m in range(m_bfa):
        grants, _ = bfa_fast(req_c[m].tolist(), avail_c[m].tolist(), e, f)
        scalar_c.append(len(grants))
    t_scalar_c = time.perf_counter() - t0
    identical_c = bool(
        np.array_equal((assign_c >= 0).sum(axis=1), np.asarray(scalar_c))
    )
    speedup_c = t_scalar_c / t_batch_c

    table = format_table(
        ["algorithm", "outputs", "k", "scalar (ms)", "batch (ms)",
         "speedup", "identical"],
        [
            ("FA", n_outputs, k, t_scalar * 1e3, t_batch * 1e3, speedup, identical),
            ("BFA", m_bfa, k, t_scalar_c * 1e3, t_batch_c * 1e3, speedup_c,
             identical_c),
        ],
        title="Batch scheduling across output fibers (load 0.9, 10% occupied)",
    )
    # Only the correctness checks gate the experiment: wall-clock speedups
    # depend on the machine (BLAS/NumPy build, core count, load) and a
    # speedup < 1 is a perf observation, not a reproduction failure.  The
    # measured ratios are recorded as notes instead.
    checks = {
        "vectorized FA grants identical to scalar": identical,
        "vectorized BFA grants identical to scalar": identical_c,
    }
    notes = (
        f"[non-gating] vectorized FA speedup at M={n_outputs}: "
        f"{speedup:.2f}x (>1 expected on typical machines)",
        f"[non-gating] batch BFA speedup at M={m_bfa}: "
        f"{speedup_c:.2f}x (scalar list sweep at every M; the gain is "
        "per-row call overhead only)",
    )
    return ExperimentResult(
        "BATCH", "Vectorized batch scheduling", (table,), checks, notes
    )
