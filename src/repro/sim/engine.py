"""The synchronous slotted simulation engine.

Per slot, the engine

1. collects the traffic model's arrivals, dropping any whose input channel is
   still busy with an earlier multi-slot connection (blocked at source —
   the input laser cannot transmit two signals);
2. presents the survivors to the per-output distributed schedulers, with the
   availability mask reflecting output channels held by ongoing connections
   (paper Section V, optical-burst "non-disturb" mode) — or, in *disturb*
   mode, reschedules the ongoing connections first on a clean band and then
   fits the new requests around them;
3. commits grants: the output channel and input channel stay busy for the
   connection's duration; rejected packets are lost (no buffers);
4. records metrics and advances the clock.

All randomness flows from one seed through spawned, independent streams
(traffic vs. grant policy), so runs are exactly reproducible.
"""

from __future__ import annotations

import json
from typing import Mapping

import numpy as np

from repro.core.base import Scheduler
from repro.core.distributed import DistributedScheduler, SlotRequest
from repro.core.policies import GrantPolicy, RandomPolicy
from repro.errors import InvalidParameterError, SimulationError
from repro.faults import FaultInjector, FaultPlan, as_injector
from repro.graphs.conversion import ConversionScheme
from repro.sim.metrics import MetricsCollector
from repro.sim.packet import Packet
from repro.sim.results import SimulationResult
from repro.sim.traffic import TrafficModel
from repro.util.rng import spawn_rngs
from repro.util.validation import check_nonnegative_int, check_positive_int

__all__ = ["SlottedSimulator"]


class SlottedSimulator:
    """Simulates an ``N × N`` interconnect over synchronous time slots.

    Parameters
    ----------
    n_fibers, scheme:
        Interconnect dimensions.
    scheduler:
        Per-output contention-resolution algorithm.
    traffic:
        Arrival process (must agree on ``n_fibers`` and ``k``).
    policy:
        Grant policy among same-wavelength contenders; defaults to seeded
        random selection (the paper's fairness recommendation).
    disturb:
        Section-V mode for multi-slot connections.  ``False`` (optical burst
        switching): ongoing connections keep their channel; new requests see
        a reduced availability mask.  ``True``: ongoing connections may be
        reassigned — they are rescheduled first each slot (never dropped;
        requires an optimal scheduler), then new requests fill the rest.
    seed:
        Master seed; spawns independent traffic and policy streams.
    faults:
        Optional :class:`~repro.faults.FaultPlan` (or a shared
        :class:`~repro.faults.FaultInjector`).  Channel outages darken
        output channels — new grants route around them exactly like
        Section-V occupied channels, while in-flight connections complete.
        Converter degradations narrow the affected inputs' request-graph
        windows.  Shard-crash events are a service-layer concept and are
        ignored by the engines.  Incompatible with ``disturb=True`` (the
        rescheduling invariant assumes a stable band).
    """

    def __init__(
        self,
        n_fibers: int,
        scheme: ConversionScheme,
        scheduler: Scheduler,
        traffic: TrafficModel,
        policy: GrantPolicy | None = None,
        disturb: bool = False,
        seed: int | None = None,
        faults: "FaultInjector | FaultPlan | None" = None,
    ) -> None:
        self.n_fibers = check_positive_int(n_fibers, "n_fibers")
        self.scheme = scheme
        if traffic.n_fibers != self.n_fibers or traffic.k != scheme.k:
            raise SimulationError(
                f"traffic model is {traffic.n_fibers}×{traffic.k}, "
                f"interconnect is {self.n_fibers}×{scheme.k}"
            )
        self.traffic = traffic
        self.disturb = bool(disturb)
        self._faults = as_injector(faults, self.n_fibers, scheme.k)
        if self.disturb and self._faults is not None:
            raise InvalidParameterError(
                "disturb=True cannot be combined with fault injection: "
                "rescheduling ongoing connections assumes every channel may "
                "be reused, which dark channels violate"
            )
        traffic_rng, policy_rng = spawn_rngs(seed, 2)
        self._traffic_rng = traffic_rng
        if policy is None:
            policy = RandomPolicy(policy_rng)
        self.scheduler = scheduler
        self.distributed = DistributedScheduler(
            self.n_fibers, scheme, scheduler, policy
        )
        # Remaining busy slots per output channel / input channel.
        self._out_busy = np.zeros((self.n_fibers, scheme.k), dtype=np.int64)
        self._in_busy = np.zeros((self.n_fibers, scheme.k), dtype=np.int64)
        # Ongoing connections for disturb mode: (in_fiber, w, out_fiber) ->
        # remaining slots *after* the current one.
        self._ongoing: dict[tuple[int, int, int], int] = {}
        self._slot = 0

    @property
    def k(self) -> int:
        """Wavelengths per fiber."""
        return self.scheme.k

    # -- state export / import ----------------------------------------------

    def export_state(self) -> dict:
        """JSON-encodable snapshot of the full simulator state.

        Captures everything :meth:`step` reads or writes — the slot
        counter, both busy matrices, the ongoing-connection table, the
        traffic RNG, and the grant policy's state — so a simulator built
        with the same constructor arguments and fed this via
        :meth:`import_state` continues *bit-identically* (the simulator
        half of the durability story; the service half lives in
        :mod:`repro.service.durability`).
        """
        return {
            "slot": self._slot,
            "out_busy": self._out_busy.tolist(),
            "in_busy": self._in_busy.tolist(),
            "ongoing": [
                [list(key), left] for key, left in sorted(self._ongoing.items())
            ],
            "traffic_rng": json.loads(
                json.dumps(self._traffic_rng.bit_generator.state)
            ),
            "policy": self.distributed.policy.export_state(),
        }

    def import_state(self, state: Mapping) -> None:
        """Install a state exported by a same-shaped simulator."""
        out_busy = np.asarray(state["out_busy"], dtype=np.int64)
        in_busy = np.asarray(state["in_busy"], dtype=np.int64)
        shape = (self.n_fibers, self.k)
        if out_busy.shape != shape or in_busy.shape != shape:
            raise InvalidParameterError(
                f"state busy matrices are {out_busy.shape}/{in_busy.shape}, "
                f"this simulator is {shape}"
            )
        self._slot = int(state["slot"])
        self._out_busy = out_busy
        self._in_busy = in_busy
        self._ongoing = {
            (int(i), int(w), int(o)): int(left)
            for (i, w, o), left in state["ongoing"]
        }
        self._traffic_rng.bit_generator.state = state["traffic_rng"]
        self.distributed.policy.restore_state(state["policy"])

    # -- one slot -----------------------------------------------------------

    def _availability(self) -> np.ndarray:
        """Free-channel mask, one ``(N, k)`` boolean array for the slot.

        Shared form with the fast path: row ``o`` is output ``o``'s mask,
        handed to :meth:`DistributedScheduler.schedule_slot` without any
        per-output Python list rebuild.
        """
        return self._out_busy == 0

    def _reschedule_ongoing(self) -> np.ndarray:
        """Disturb mode: re-place every ongoing connection on a clean band;
        returns the availability left for new requests."""
        requests = [
            SlotRequest(i, w, o, duration=1)
            for (i, w, o) in sorted(self._ongoing)
        ]
        self._out_busy[:, :] = 0
        for (i, w, _o), left in self._ongoing.items():
            # Input channels stay busy regardless of output re-placement.
            self._in_busy[i, w] = left + 1
        if not requests:
            return self._availability()
        schedule = self.distributed.schedule_slot(requests)
        if schedule.n_rejected:
            raise SimulationError(
                "disturb-mode rescheduling dropped an ongoing connection; "
                "use an optimal scheduler (FA/BFA/Hopcroft-Karp) with disturb=True"
            )
        for g in schedule.granted:
            key = (g.request.input_fiber, g.request.wavelength, g.request.output_fiber)
            left = self._ongoing[key]
            self._out_busy[g.request.output_fiber, g.channel] = left + 1
        return self._availability()

    def step(self) -> Mapping[str, int]:
        """Advance one slot; returns the slot's raw counters."""
        slot = self._slot
        arrivals = self.traffic.arrivals(slot, self._traffic_rng)

        # Arrivals whose input channel is mid-connection are lost at source.
        submitted_packets: list[Packet] = []
        blocked = 0
        seen: set[tuple[int, int]] = set()
        for p in arrivals:
            key = (p.input_fiber, p.wavelength)
            if key in seen:
                raise SimulationError(
                    f"traffic model emitted two packets on input channel {key} "
                    f"in slot {slot}"
                )
            seen.add(key)
            if self._in_busy[p.input_fiber, p.wavelength] > 0:
                blocked += 1
            else:
                submitted_packets.append(p)

        if self.disturb:
            availability = self._reschedule_ongoing()
        else:
            availability = self._availability()
        dark = None
        degradations = None
        if self._faults is not None:
            dark = self._faults.dark_mask(slot)
            if dark.any():
                # A dark channel is indistinguishable from an occupied one to
                # the schedulers — grants route around it (graceful
                # degradation); connections already on it complete.
                availability = availability & ~dark
            degradations = self._faults.degradations_at(slot) or None

        requests = [
            SlotRequest(
                p.input_fiber,
                p.wavelength,
                p.output_fiber,
                p.duration,
                p.priority,
                p.tenant,
            )
            for p in submitted_packets
        ]
        by_key = {
            (p.input_fiber, p.wavelength): p for p in submitted_packets
        }
        if degradations:
            schedule = self.distributed.schedule_slot(
                requests, availability, degradations=degradations
            )
        else:
            # Keep the historical two-argument call shape so wrappers that
            # instrument schedule_slot (equivalence tests) keep working.
            schedule = self.distributed.schedule_slot(requests, availability)

        granted_inputs: list[int] = []
        granted_durations: list[int] = []
        granted_priorities: list[int] = []
        granted_tenants: list[int] = []
        for g in schedule.granted:
            r = g.request
            if self._out_busy[r.output_fiber, g.channel] > 0:
                raise SimulationError(
                    f"scheduler assigned occupied channel ({r.output_fiber}, "
                    f"{g.channel}) in slot {slot}"
                )
            if dark is not None and dark[r.output_fiber, g.channel]:
                raise SimulationError(
                    f"scheduler assigned dark channel ({r.output_fiber}, "
                    f"{g.channel}) in slot {slot}"
                )
            self._out_busy[r.output_fiber, g.channel] = r.duration
            self._in_busy[r.input_fiber, r.wavelength] = r.duration
            if r.duration > 1:
                self._ongoing[(r.input_fiber, r.wavelength, r.output_fiber)] = (
                    r.duration - 1
                )
            packet = by_key[(r.input_fiber, r.wavelength)]
            granted_inputs.append(packet.input_fiber)
            granted_durations.append(packet.duration)
            granted_priorities.append(packet.priority)
            granted_tenants.append(packet.tenant)

        counters = {
            "slot": slot,
            "offered": len(arrivals),
            "blocked_source": blocked,
            "submitted": len(submitted_packets),
            "granted": len(granted_inputs),
            "busy_channels": int(np.count_nonzero(self._out_busy)),
            "dark_channels": int(dark.sum()) if dark is not None else 0,
            "granted_inputs": granted_inputs,
            "granted_priorities": granted_priorities,
            "granted_durations": granted_durations,
            "granted_tenants": granted_tenants,
            "submitted_inputs": [p.input_fiber for p in submitted_packets],
            "submitted_priorities": [p.priority for p in submitted_packets],
            "submitted_tenants": [p.tenant for p in submitted_packets],
        }

        # End of slot: connections age by one.
        np.maximum(self._out_busy - 1, 0, out=self._out_busy)
        np.maximum(self._in_busy - 1, 0, out=self._in_busy)
        for key in list(self._ongoing):
            left = self._ongoing[key] - 1
            if left <= 0:
                del self._ongoing[key]
            else:
                self._ongoing[key] = left
        self._slot += 1
        return counters

    # -- full runs ----------------------------------------------------------

    def run(self, n_slots: int, warmup: int = 0) -> SimulationResult:
        """Run ``warmup + n_slots`` slots; metrics cover the last ``n_slots``."""
        check_positive_int(n_slots, "n_slots")
        check_nonnegative_int(warmup, "warmup")
        metrics = MetricsCollector(self.n_fibers, self.k)
        for _ in range(warmup):
            self.step()
        for _ in range(n_slots):
            c = self.step()
            metrics.record_slot(
                offered=c["offered"],
                blocked_source=c["blocked_source"],
                submitted=c["submitted"],
                granted_inputs=c["granted_inputs"],
                granted_priorities=c["granted_priorities"],
                granted_durations=c["granted_durations"],
                submitted_inputs=c["submitted_inputs"],
                submitted_priorities=c["submitted_priorities"],
                busy_channels=c["busy_channels"],
            )
        config = {
            "n_fibers": self.n_fibers,
            "k": self.k,
            "scheme": repr(self.scheme),
            "scheduler": self.scheduler.name,
            "traffic": type(self.traffic).__name__,
            "offered_load": self.traffic.offered_load,
            "disturb": self.disturb,
            "fault_events": (
                self._faults.plan.n_events if self._faults is not None else 0
            ),
        }
        return SimulationResult(config=config, metrics=metrics, warmup_slots=warmup)
