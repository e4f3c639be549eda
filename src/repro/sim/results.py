"""Simulation result containers and statistical helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import InvalidParameterError
from repro.sim.metrics import MetricsCollector

__all__ = ["SimulationResult", "mean_confidence_interval"]


def mean_confidence_interval(
    samples: np.ndarray, confidence: float = 0.95
) -> tuple[float, float, float]:
    """``(mean, lo, hi)`` Student-t confidence interval of the sample mean.

    Degenerate inputs (fewer than two samples, zero variance) collapse the
    interval onto the mean.
    """
    if not 0.0 < confidence < 1.0:
        raise InvalidParameterError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise InvalidParameterError("cannot build an interval from no samples")
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, mean, mean
    # Imported here so importing repro.sim never loads scipy.
    from scipy import stats

    sem = float(stats.sem(arr))
    if sem == 0.0:
        return mean, mean, mean
    half = float(sem * stats.t.ppf((1.0 + confidence) / 2.0, arr.size - 1))
    return mean, mean - half, mean + half


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one :class:`~repro.sim.engine.SlottedSimulator` run."""

    config: Mapping[str, object]
    metrics: MetricsCollector
    warmup_slots: int = 0
    extra: Mapping[str, object] = field(default_factory=dict)

    @property
    def n_slots(self) -> int:
        """Measured slots (after warm-up)."""
        return self.metrics.n_slots

    def summary(self) -> dict[str, float]:
        """Scalar metric summary, suitable for a results table row."""
        m = self.metrics
        return {
            "slots": float(m.n_slots),
            "offered": float(m.offered),
            "submitted": float(m.submitted),
            "granted": float(m.granted),
            "rejected": float(m.rejected),
            "blocked_source": float(m.blocked_source),
            "acceptance_ratio": m.acceptance_ratio,
            "loss_probability": m.loss_probability,
            "source_block_probability": m.source_block_probability,
            "utilization": m.utilization,
            "normalized_throughput": m.normalized_throughput,
            "input_fairness": m.input_fairness,
            "mean_granted_duration": m.mean_granted_duration,
        }

    def acceptance_interval(
        self, confidence: float = 0.95
    ) -> tuple[float, float, float]:
        """Per-slot acceptance-ratio confidence interval.

        Slots with no submissions are excluded (their ratio is undefined).
        """
        submitted = self.metrics.submitted_series().astype(float)
        granted = self.metrics.granted_series().astype(float)
        mask = submitted > 0
        if not np.any(mask):
            return 1.0, 1.0, 1.0
        return mean_confidence_interval(granted[mask] / submitted[mask], confidence)
