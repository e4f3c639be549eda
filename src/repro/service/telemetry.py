"""Built-in service telemetry: counters, gauges, and histograms.

The scheduling service instruments every layer — queues, shards, the tick
loop — through one :class:`Telemetry` registry, so a single
:meth:`~Telemetry.snapshot` answers the operational questions: offered load,
grant rate, queue depths, channel occupancy, grant latency, and slot-tick
duration.  The primitives are deliberately tiny and dependency-free
(Prometheus-style naming, fixed-bucket histograms) and thread-safe, because
shards may run on executor threads while the event loop reads gauges.

Conservation invariant (tested): every submitted request resolves exactly
once, so the outcome counters partition the offered load::

    submitted == granted + rejected_contention + rejected_source
               + rejected_queue_full + dropped + timed_out + shutdown
               + shard_down + circuit_open + duplicate + admission_shed
               + rate_limited + unavailable

``shard_down``/``circuit_open`` are fault-path outcomes (see
:mod:`repro.faults` and ``docs/ROBUSTNESS.md``): requests refused because
the owning shard was down, or short-circuited by that shard's open circuit
breaker.  ``duplicate`` counts submissions deduplicated by request id —
each resolved immediately with the original's grant or a ``DUPLICATE``
refusal, never scheduled again (exactly-once; ``docs/SERVICE.md``).
``admission_shed`` counts requests shed by per-tenant admission control
(the ``SHED`` overflow policy — eviction *or* refusal at the door).
``rate_limited`` counts requests refused at the edge by the per-tenant
token-bucket limiter (:mod:`repro.service.ratelimit`) — resolved before
ever touching a queue or shard.  ``unavailable`` counts requests typed
out by an edge↔worker partition (the owning worker process stayed
unreachable through the pool's respawn budget — graceful degradation,
not a hang; ``docs/ROBUSTNESS.md``).  All six are zero in a fault-free,
retry-free, unlimited-queue, unlimited-rate run, reducing the invariant
to its original form.

The same partition holds **per tenant**: the edge mirrors the aggregate
counters as ``tenant.<id>.submitted`` / ``tenant.<id>.granted`` /
``tenant.<id>.rejected.<reason>``, so conservation can be asserted for
every tenant independently (the multi-tenant chaos drill does exactly
that).  :class:`SloAccountant` folds those ledgers into per-tenant /
per-class service-level reports.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

from repro.errors import InvalidParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Telemetry",
    "SloAccountant",
    "exponential_buckets",
]


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` exponentially spaced upper bounds starting at ``start``.

    The standard latency-histogram layout: ``start, start*factor, ...``;
    an implicit ``+inf`` bucket always follows the last bound.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise InvalidParameterError(
            f"need start > 0, factor > 1, count >= 1; "
            f"got {start}, {factor}, {count}"
        )
    return tuple(start * factor**i for i in range(count))


#: Default grant-latency buckets: 50 µs … ~26 s in ×2 steps.
LATENCY_BUCKETS = exponential_buckets(50e-6, 2.0, 20)


class Counter:
    """Monotonic event counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise InvalidParameterError(f"counter increment must be >= 0, got {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Last-write-wins instantaneous value (queue depth, occupancy)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with quantile estimation.

    ``buckets`` are ascending upper bounds; an implicit overflow bucket
    catches everything above the last bound.  Quantiles are estimated by
    linear interpolation inside the winning bucket (clamped to the observed
    min/max), which is plenty for p50/p99 reporting and keeps ``observe``
    O(log B) with no per-sample storage.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise InvalidParameterError(
                f"histogram buckets must be non-empty and ascending, got {buckets!r}"
            )
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        # First bound >= value; len(bounds) is the overflow bucket.
        i = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[i] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise InvalidParameterError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q * self._count
            seen = 0.0
            for i, c in enumerate(self._counts):
                if c == 0:
                    continue
                if seen + c >= rank:
                    lo = self.bounds[i - 1] if i > 0 else self._min
                    hi = self.bounds[i] if i < len(self.bounds) else self._max
                    lo = max(lo, self._min)
                    hi = min(hi, self._max)
                    if hi <= lo or c == 0:
                        return lo
                    frac = (rank - seen) / c
                    return lo + frac * (hi - lo)
                seen += c
            return self._max

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            count, total = self._count, self._sum
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "max": self._max if count else 0.0,
        }


class Telemetry:
    """Get-or-create registry for the service's metrics.

    Names are dot-separated (``server.granted``, ``shard.3.queue_depth``).
    Registering the same name twice returns the same instrument; registering
    it as a different *kind* is an error (it would silently split a metric).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_free(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise InvalidParameterError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        with self._lock:
            self._check_free(name, "counter")
            return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            self._check_free(name, "gauge")
            return self._gauges.setdefault(name, Gauge())

    def histogram(
        self, name: str, buckets: Sequence[float] | None = None
    ) -> Histogram:
        with self._lock:
            self._check_free(name, "histogram")
            if name not in self._histograms:
                self._histograms[name] = Histogram(buckets or LATENCY_BUCKETS)
            return self._histograms[name]

    def counters(self, prefix: str = "") -> dict[str, int]:
        """Current counter values, optionally filtered by name prefix."""
        return {
            name: c.value
            for name, c in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def snapshot(self) -> dict[str, object]:
        """One plain-data view of every instrument (safe to serialize)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.snapshot() for n, h in sorted(self._histograms.items())
            },
        }

    def render(self) -> str:
        """Human-readable export (the demo and benchmark print this)."""
        snap = self.snapshot()
        lines: list[str] = []
        counters: Mapping[str, int] = snap["counters"]  # type: ignore[assignment]
        gauges: Mapping[str, float] = snap["gauges"]  # type: ignore[assignment]
        hists: Mapping[str, Mapping[str, float]] = snap["histograms"]  # type: ignore[assignment]
        if counters:
            lines.append("counters:")
            lines.extend(f"  {n:<40} {v}" for n, v in counters.items())
        if gauges:
            lines.append("gauges:")
            lines.extend(f"  {n:<40} {v:g}" for n, v in gauges.items())
        if hists:
            lines.append("histograms:")
            for n, h in hists.items():
                lines.append(
                    f"  {n:<40} count={h['count']:.0f} mean={h['mean']:.6f} "
                    f"p50={h['p50']:.6f} p99={h['p99']:.6f} max={h['max']:.6f}"
                )
        return "\n".join(lines)


class SloAccountant:
    """Per-tenant / per-class service-level accounting.

    A tiny outcome ledger keyed ``(tenant, priority_class)``: feed it one
    :meth:`record` per resolved request (``"granted"`` or a reject-reason
    string), set grant-ratio floors with :meth:`set_target`, and
    :meth:`report` answers whether each tenant — optionally each class
    within it — met its service level over the window.

    It is deliberately decoupled from :class:`Telemetry` (plain dicts, no
    instruments): the QoS experiment and chaos drill drive it from resolved
    futures, and nothing on the tick path pays for it unless wired in.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (tenant, class) -> [submitted, granted, {reason: count}]
        self._cells: dict[tuple[int, int], list] = {}
        # (tenant, class | None) -> min grant ratio; None = all classes.
        self._targets: dict[tuple[int, int | None], float] = {}

    def set_target(
        self,
        tenant: int,
        min_grant_ratio: float,
        priority: int | None = None,
    ) -> None:
        """Require ``granted/submitted >= min_grant_ratio`` for ``tenant``
        (one class when ``priority`` is given, the tenant rollup when
        ``None``)."""
        if not 0.0 <= min_grant_ratio <= 1.0:
            raise InvalidParameterError(
                f"min_grant_ratio must be in [0, 1], got {min_grant_ratio}"
            )
        self._targets[(tenant, priority)] = float(min_grant_ratio)

    def record(self, tenant: int, priority: int, outcome: str) -> None:
        """Account one resolved request: ``outcome`` is ``"granted"`` or a
        reject-reason string (``RejectReason.value``)."""
        key = (int(tenant), int(priority))
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                cell = self._cells[key] = [0, 0, {}]
            cell[0] += 1
            if outcome == "granted":
                cell[1] += 1
            else:
                cell[2][outcome] = cell[2].get(outcome, 0) + 1

    def grant_ratio(self, tenant: int, priority: int | None = None) -> float:
        """Observed ``granted/submitted`` (1.0 when nothing submitted)."""
        submitted = granted = 0
        with self._lock:
            for (t, cls), cell in self._cells.items():
                if t == tenant and (priority is None or cls == priority):
                    submitted += cell[0]
                    granted += cell[1]
        return granted / submitted if submitted else 1.0

    def report(self) -> dict[str, object]:
        """Plain-data SLO report.

        ``cells`` maps ``"tenant/class"`` to its ledger; ``tenants`` maps
        each tenant id to its rollup (submitted, granted, grant_ratio,
        target, met); ``all_met`` is the single pass/fail bit the drills
        gate on (targets with no traffic count as met).
        """
        with self._lock:
            cells = {
                f"{t}/{cls}": {
                    "submitted": cell[0],
                    "granted": cell[1],
                    "rejected": dict(sorted(cell[2].items())),
                }
                for (t, cls), cell in sorted(self._cells.items())
            }
            tenants_seen = sorted({t for t, _cls in self._cells})
        tenants: dict[int, dict[str, object]] = {}
        all_met = True
        for t in tenants_seen:
            ratio = self.grant_ratio(t)
            target = self._targets.get((t, None))
            met = target is None or ratio >= target
            tenants[t] = {
                "grant_ratio": ratio,
                "target": target,
                "met": met,
            }
            all_met = all_met and met
        for (t, cls), target in sorted(
            (k, v) for k, v in self._targets.items() if k[1] is not None
        ):
            ratio = self.grant_ratio(t, cls)
            met = ratio >= target
            tenants.setdefault(t, {})[f"class_{cls}"] = {
                "grant_ratio": ratio,
                "target": target,
                "met": met,
            }
            all_met = all_met and met
        return {"cells": cells, "tenants": tenants, "all_met": all_met}


def merge_counters(snapshots: Iterable[Mapping[str, int]]) -> dict[str, int]:
    """Sum counter maps across services (multi-instance aggregation)."""
    out: dict[str, int] = {}
    for snap in snapshots:
        for name, value in snap.items():
            out[name] = out.get(name, 0) + value
    return out
