"""Vectorized fast-path simulator for packet *and* multi-slot burst studies.

Parameter sweeps like ``PERF-D`` and the Section-V burst sweeps don't need
per-packet Python objects: the paper's structural insight — per-slot
scheduling decomposes into ``N`` independent per-output sub-problems — makes
the whole slot one batch kernel call
(:func:`~repro.core.batch.batch_first_available` /
:func:`~repro.core.batch_bfa.batch_break_first_available`) over the ``(N,
k)`` request matrix.

Two regimes share that kernel:

* **Single-slot traffic** (all durations 1): wavelength-level grant counts
  are *policy-independent*, so the slot reduces to one kernel call with an
  all-free mask and no grant distribution at all.  Per-slot grant counts are
  exactly equal to the full engine's (tested); per-input attribution is
  skipped (fairness reads as neutral).
* **Multi-slot traffic** (paper Section V, non-disturb): the simulator
  carries ``(N, k)`` residual-occupancy matrices across slots — output
  channels and input channels held by ongoing connections — decrements them
  vectorized, and feeds the free-channel mask into the kernels as
  ``available``.  Which requester wins a wavelength's channels now matters
  (the winner's duration drives future occupancy), so grants are distributed
  through the same policy protocol as
  :func:`~repro.core.distributed.distribute_grants`, consuming the policy
  RNG identically.  The result is *bit-identical* to
  :class:`~repro.sim.engine.SlottedSimulator` with the scheme's optimal
  scheduler on the same seed — full metric equality, attribution included
  (tested slot by slot).

Both regimes consume :meth:`~repro.sim.traffic.TrafficModel.arrivals_batch`
— the same draws the full engine materializes into packets — so the two
engines see identical traffic from one seed.  Disturb mode and QoS priority
classes still need the full engine.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import batch_first_available
from repro.core.batch_bfa import batch_break_first_available
from repro.core.memo import ScheduleCache, resolve_cache
from repro.core.policies import GrantPolicy, RandomPolicy
from repro.errors import SimulationError
from repro.faults import FaultInjector, FaultPlan, as_injector
from repro.graphs.conversion import (
    CircularConversion,
    ConversionScheme,
    NonCircularConversion,
)
from repro.sim.duration import DeterministicDuration
from repro.sim.metrics import MetricsCollector
from repro.sim.results import SimulationResult
from repro.sim.traffic import ArrivalBatch, TrafficModel
from repro.util.rng import spawn_rngs
from repro.util.validation import check_nonnegative_int, check_positive_int

__all__ = ["FastPacketSimulator"]


class FastPacketSimulator:
    """Batch-vectorized slotted simulation (single- and multi-slot traffic).

    Parameters mirror :class:`~repro.sim.engine.SlottedSimulator` minus the
    scheduler (the optimal batch kernel for the scheme is implied) and minus
    disturb mode.  ``policy`` is only consulted for multi-slot traffic,
    where it defaults to the same seeded :class:`~repro.core.policies.
    RandomPolicy` the full engine would use — which is what makes the two
    engines bit-identical on one seed.

    ``cache`` memoizes per-output assignment rows (``True`` = the shared
    default :class:`~repro.core.memo.ScheduleCache`, ``None``/``False`` =
    off, or a private instance).  Purely a speed knob: results are
    bit-identical either way.

    ``faults`` accepts a :class:`~repro.faults.FaultPlan` (or shared
    injector) of *channel outages only*: dark channels enter the kernels'
    availability mask, so a pure-outage plan keeps the fast engine
    bit-identical to the full engine.  Converter degradation is per-input
    and cannot be expressed in the one-scheme batch kernels — plans carrying
    it are rejected here (use :class:`~repro.sim.engine.SlottedSimulator`);
    shard-crash events are service-layer-only and ignored.
    """

    def __init__(
        self,
        n_fibers: int,
        scheme: ConversionScheme,
        traffic: TrafficModel,
        seed: int | None = None,
        policy: GrantPolicy | None = None,
        cache: ScheduleCache | bool | None = True,
        faults: "FaultInjector | FaultPlan | None" = None,
    ) -> None:
        self.n_fibers = check_positive_int(n_fibers, "n_fibers")
        if not isinstance(scheme, (CircularConversion, NonCircularConversion)):
            raise SimulationError(
                f"unsupported scheme for the fast path: {scheme!r}"
            )
        self.scheme = scheme
        if traffic.n_fibers != self.n_fibers or traffic.k != scheme.k:
            raise SimulationError(
                f"traffic model is {traffic.n_fibers}×{traffic.k}, "
                f"interconnect is {self.n_fibers}×{scheme.k}"
            )
        self.traffic = traffic
        self._faults = as_injector(faults, self.n_fibers, scheme.k)
        if self._faults is not None and self._faults.has_degradations:
            raise SimulationError(
                "the fast path's batch kernels schedule one conversion "
                "scheme for all inputs and cannot express per-input "
                "converter degradation; use SlottedSimulator for plans "
                "with ConverterDegradation events"
            )
        # Mirror SlottedSimulator's stream layout (traffic, then policy) so
        # both engines see identical arrivals AND identical policy draws
        # from the same seed.
        traffic_rng, policy_rng = spawn_rngs(seed, 2)
        self._traffic_rng = traffic_rng
        self.policy: GrantPolicy = (
            policy if policy is not None else RandomPolicy(policy_rng)
        )
        # Residual occupancy carried across slots (multi-slot regime):
        # remaining busy slots per output channel / input channel.
        self._out_busy = np.zeros((self.n_fibers, scheme.k), dtype=np.int64)
        self._in_busy = np.zeros((self.n_fibers, scheme.k), dtype=np.int64)
        # Single-slot regime iff the duration model provably always draws 1;
        # traffic models without a known duration model get the (equally
        # correct, slightly slower) stateful path.
        durations = getattr(traffic, "durations", None)
        self._single_slot = (
            isinstance(durations, DeterministicDuration) and durations.slots == 1
        )
        # Per-output sub-problem memoization: an output row's assignment is a
        # pure function of (scheme, request row, availability row), and slot
        # traffic revisits a small working set of such rows.  ``True`` shares
        # the process-wide default cache with the schedulers; the tag keeps
        # kernel rows and ScheduleResult entries from ever colliding.
        self._row_cache = resolve_cache(cache)
        self._cache_tag = (
            "batch-fa" if isinstance(scheme, NonCircularConversion)
            else "batch-bfa",
            scheme.k,
            scheme.e,
            scheme.f,
        )
        self._slot = 0

    @property
    def k(self) -> int:
        """Wavelengths per fiber."""
        return self.scheme.k

    def _schedule_matrix(
        self, req: np.ndarray, avail: np.ndarray | None
    ) -> np.ndarray:
        if isinstance(self.scheme, NonCircularConversion):
            return batch_first_available(
                req, avail, self.scheme.e, self.scheme.f, check=False
            )
        return batch_break_first_available(
            req, avail, self.scheme.e, self.scheme.f, check=False
        )

    def _validate_row(
        self,
        row: np.ndarray,
        req_row: np.ndarray,
        avail_row: np.ndarray | None,
    ) -> None:
        """Trust boundary for the batch kernels (mirrors
        :func:`~repro.core.base.validate_schedule` on the row encoding).

        Rejects grants to unavailable channels, grants outside the scheme's
        conversion window, and per-wavelength overgrants.  Runs once per
        cache miss, so the steady-state cost is near zero.
        """
        k = self.k
        e, f = self.scheme.e, self.scheme.f
        circular = isinstance(self.scheme, CircularConversion)
        counts: dict[int, int] = {}
        for b, w in enumerate(row.tolist()):
            if w < 0:
                continue
            if avail_row is not None and not avail_row[b]:
                raise SimulationError(
                    f"batch kernel granted unavailable channel {b} "
                    f"(wavelength {w})"
                )
            if circular:
                off = (b - w) % k
                adjacent = off <= f or off >= k - e
            else:
                adjacent = -e <= b - w <= f
            if not adjacent:
                raise SimulationError(
                    f"batch kernel granted channel {b} outside wavelength "
                    f"{w}'s conversion window"
                )
            counts[w] = counts.get(w, 0) + 1
        for w, c in counts.items():
            if c > int(req_row[w]):
                raise SimulationError(
                    f"batch kernel granted {c} channels for wavelength {w} "
                    f"with only {int(req_row[w])} requests"
                )

    @staticmethod
    def _parse_row(row: np.ndarray) -> tuple[dict[int, list[int]], int]:
        """``(granted channels keyed by wavelength, grant count)`` of a
        kernel assignment row — the only two things consumers ever read."""
        channels_by_w: dict[int, list[int]] = {}
        count = 0
        for b, w in enumerate(row.tolist()):
            if w >= 0:
                channels_by_w.setdefault(w, []).append(b)
                count += 1
        return channels_by_w, count

    def _assign_rows(
        self, req: np.ndarray, avail: np.ndarray | None
    ) -> dict[int, tuple[dict[int, list[int]], int]]:
        """Parsed assignment per output that has requests, memoized per row.

        Outputs without requests grant nothing and are omitted.  Cached
        values are read-only by convention — every consumer only reads them.
        """
        active = np.nonzero(req.any(axis=1))[0]
        if self._row_cache is None:
            sub = self._schedule_matrix(
                req[active], None if avail is None else avail[active]
            )
            out: dict[int, tuple[dict[int, list[int]], int]] = {}
            for j, o in enumerate(active):
                o = int(o)
                self._validate_row(
                    sub[j], req[o], None if avail is None else avail[o]
                )
                out[o] = self._parse_row(sub[j])
            return out

        rows_out: dict[int, tuple[dict[int, list[int]], int]] = {}
        misses: list[tuple[int, tuple]] = []
        for o in active:
            o = int(o)
            key = (
                self._cache_tag,
                req[o].tobytes(),
                b"" if avail is None else avail[o].tobytes(),
            )
            value = self._row_cache.get(key)
            if value is None:
                misses.append((o, key))
            else:
                rows_out[o] = value
        if misses:
            idx = np.fromiter((o for o, _ in misses), dtype=np.int64)
            sub = self._schedule_matrix(
                req[idx], None if avail is None else avail[idx]
            )
            for (o, key), row in zip(misses, sub):
                self._validate_row(
                    row, req[o], None if avail is None else avail[o]
                )
                value = self._parse_row(row)
                self._row_cache.put(key, value)
                rows_out[o] = value
        return rows_out

    # -- single-slot regime (stateless slots) -------------------------------

    def _step_single_slot(
        self, batch: ArrivalBatch, dark: np.ndarray | None
    ) -> dict[str, object]:
        req = np.zeros((self.n_fibers, self.k), dtype=np.int64)
        if batch.n:
            np.add.at(req, (batch.output_fiber, batch.wavelength), 1)
        rows = self._assign_rows(req, None if dark is None else ~dark)
        granted = sum(count for _, count in rows.values())
        return {
            "offered": batch.n,
            "blocked_source": 0,
            "submitted": batch.n,
            "granted": granted,
            "busy_channels": granted,
            # Attribution is policy-dependent and skipped in this regime.
            "granted_inputs": None,
            "granted_durations": None,
            "submitted_inputs": None,
        }

    # -- multi-slot regime (residual occupancy carried across slots) --------

    def _step_multislot(
        self, batch: ArrivalBatch, dark: np.ndarray | None
    ) -> dict[str, object]:
        n = batch.n
        in_f, wl = batch.input_fiber, batch.wavelength
        if n:
            if batch.priority.any():
                raise SimulationError(
                    "the fast path schedules a single QoS class; use "
                    "SlottedSimulator for strict-priority traffic"
                )
            if np.unique(in_f * self.k + wl).size != n:
                raise SimulationError(
                    "traffic model emitted two packets on one input channel "
                    f"in slot {self._slot}"
                )

        # Arrivals whose input channel is mid-connection are lost at source.
        free_in = self._in_busy[in_f, wl] == 0
        blocked = int(n - np.count_nonzero(free_in))
        if blocked:
            in_s = in_f[free_in]
            wl_s = wl[free_in]
            out_s = batch.output_fiber[free_in]
            dur_s = batch.duration[free_in]
        else:
            in_s, wl_s = in_f, wl
            out_s, dur_s = batch.output_fiber, batch.duration

        req = np.zeros((self.n_fibers, self.k), dtype=np.int64)
        if in_s.size:
            np.add.at(req, (out_s, wl_s), 1)
        avail = self._out_busy == 0
        if dark is not None:
            # Dark channels behave exactly like Section-V occupied channels:
            # the kernels route new grants around them, in-flight
            # connections complete — same rule as the full engine, which is
            # what keeps pure-outage plans bit-identical across engines.
            avail &= ~dark
        assign_rows = self._assign_rows(req, avail)

        # Group the submitted requests by (output, wavelength) — plain-Python
        # lists, cheap next to the per-output scheduling they replace.  The
        # protocol below consumes the grant policy exactly like
        # distribute_grants, so the two engines' policy streams stay aligned.
        in_l = in_s.tolist()
        wl_l = wl_s.tolist()
        out_l = out_s.tolist()
        dur_l = dur_s.tolist()
        by_output: dict[int, dict[int, dict[int, int]]] = {}
        for i, o in enumerate(out_l):
            by_output.setdefault(o, {}).setdefault(wl_l[i], {})[
                in_l[i]
            ] = dur_l[i]

        # RandomPolicy provably consumes no RNG (and keeps no state) when
        # every contender wins, so those select() calls can be elided without
        # perturbing the shared policy stream.  Only for the exact class —
        # subclasses and other policies get the full protocol.
        uncontended_skip = type(self.policy) is RandomPolicy
        granted_inputs: list[int] = []
        granted_durations: list[int] = []
        g_out: list[int] = []
        g_ch: list[int] = []
        g_wl: list[int] = []
        for o in sorted(by_output):
            channels_by_w = assign_rows[o][0]
            for w in sorted(by_output[o]):
                by_fiber = by_output[o][w]
                channels = channels_by_w.get(w, ())
                fibers = sorted(by_fiber)
                if uncontended_skip and len(channels) >= len(fibers):
                    pairs = zip(fibers, channels)
                else:
                    winners = self.policy.select(o, w, fibers, len(channels))
                    pairs = zip(sorted(set(winners)), channels)
                for fiber, channel in pairs:
                    g_out.append(o)
                    g_ch.append(channel)
                    g_wl.append(w)
                    granted_inputs.append(fiber)
                    granted_durations.append(by_fiber[fiber])

        # Commit all grants at once; nothing reads occupancy mid-loop.  The
        # duplicate/occupied checks are the same last-line defense the full
        # engine applies before mutating its busy matrices.
        if granted_inputs:
            committed: set[tuple[int, int]] = set()
            for o, ch in zip(g_out, g_ch):
                if (o, ch) in committed:
                    raise SimulationError(
                        f"two grants committed to output channel ({o}, {ch}) "
                        f"in slot {self._slot - 1}"
                    )
                committed.add((o, ch))
                if self._out_busy[o, ch] > 0:
                    raise SimulationError(
                        f"grant committed to occupied channel ({o}, {ch}) "
                        f"in slot {self._slot - 1}"
                    )
                if dark is not None and dark[o, ch]:
                    raise SimulationError(
                        f"grant committed to dark channel ({o}, {ch}) "
                        f"in slot {self._slot - 1}"
                    )
            self._out_busy[g_out, g_ch] = granted_durations
            self._in_busy[granted_inputs, g_wl] = granted_durations
        busy = int(np.count_nonzero(self._out_busy))
        # End of slot: connections age by one.
        np.maximum(self._out_busy - 1, 0, out=self._out_busy)
        np.maximum(self._in_busy - 1, 0, out=self._in_busy)
        return {
            "offered": n,
            "blocked_source": blocked,
            "submitted": len(in_l),
            "granted": len(granted_inputs),
            "busy_channels": busy,
            "granted_inputs": granted_inputs,
            "granted_durations": granted_durations,
            "submitted_inputs": in_l,
        }

    # -- one slot ------------------------------------------------------------

    def step(self) -> dict[str, object]:
        """One slot: array arrivals → request matrix → one batch schedule."""
        slot = self._slot
        batch = self.traffic.arrivals_batch(slot, self._traffic_rng)
        self._slot += 1
        dark = None
        if self._faults is not None:
            mask = self._faults.dark_mask(slot)
            if mask.any():
                dark = mask
        if self._single_slot:
            return self._step_single_slot(batch, dark)
        return self._step_multislot(batch, dark)

    # -- full runs -----------------------------------------------------------

    def run(self, n_slots: int, warmup: int = 0) -> SimulationResult:
        """Run ``warmup + n_slots`` slots; metrics cover the last ``n_slots``.

        In the single-slot regime, per-input-fiber grant attribution is
        policy-dependent and not tracked (fairness reads as neutral 1.0); in
        the multi-slot regime attribution is exact.
        """
        check_positive_int(n_slots, "n_slots")
        check_nonnegative_int(warmup, "warmup")
        metrics = MetricsCollector(self.n_fibers, self.k)
        for _ in range(warmup):
            self.step()
        for _ in range(n_slots):
            c = self.step()
            if c["granted_inputs"] is None:
                granted = int(c["granted"])  # type: ignore[arg-type]
                metrics.record_slot(
                    offered=c["offered"],
                    blocked_source=0,
                    submitted=c["submitted"],
                    granted_inputs=[0] * granted,
                    granted_durations=[1] * granted,
                    submitted_inputs=[],
                    busy_channels=c["busy_channels"],
                )
            else:
                # Single class by construction (nonzero priorities raise),
                # so class-0 accounting matches the full engine exactly.
                metrics.record_slot(
                    offered=c["offered"],
                    blocked_source=c["blocked_source"],
                    submitted=c["submitted"],
                    granted_inputs=c["granted_inputs"],
                    granted_durations=c["granted_durations"],
                    submitted_inputs=c["submitted_inputs"],
                    busy_channels=c["busy_channels"],
                    granted_priorities=[0] * len(c["granted_inputs"]),
                    submitted_priorities=[0] * len(c["submitted_inputs"]),
                )
        config = {
            "n_fibers": self.n_fibers,
            "k": self.k,
            "scheme": repr(self.scheme),
            "scheduler": "batch-fast-path",
            "traffic": type(self.traffic).__name__,
            "offered_load": self.traffic.offered_load,
            "disturb": False,
            "fault_events": (
                self._faults.plan.n_events if self._faults is not None else 0
            ),
        }
        return SimulationResult(config=config, metrics=metrics, warmup_slots=warmup)
