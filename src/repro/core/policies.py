"""Grant policies: which of several same-wavelength requests wins.

The schedulers decide *how many* requests on each wavelength are granted
(same-wavelength requests are interchangeable for matching size, paper
Section III).  When several input fibers offered requests on that wavelength,
a policy picks the winners.  The paper recommends random selection or
round-robin for fairness, citing the electronic-switch schedulers of
McKeown et al. [7][8].
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Hashable, Mapping, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.util.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.distributed import SlotRequest

__all__ = [
    "GrantPolicy",
    "FixedPriorityPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "WeightedFairPolicy",
]


class GrantPolicy(ABC):
    """Selects ``n`` winners among the requesters of one wavelength on one
    output fiber.  Implementations may keep per-(output, wavelength) state
    across slots (round-robin) but must not share state across output fibers,
    so the per-output schedulers stay independent ("distributed"): output
    ``o``'s winners depend only on ``o``'s own history, and its state slice
    (:meth:`export_output_state`) is all a scheduler of ``o`` needs."""

    @abstractmethod
    def select(
        self,
        output_fiber: int,
        wavelength: int,
        requesters: Sequence[Hashable],
        n: int,
    ) -> list[Hashable]:
        """Return ``min(n, len(requesters))`` distinct winners."""

    def select_requests(
        self,
        output_fiber: int,
        wavelength: int,
        requests: "Sequence[SlotRequest]",
        n: int,
    ) -> list[int]:
        """Pick the winning *input fibers* among full requests.

        :func:`~repro.core.distributed.distribute_grants` calls this form so
        policies can see request attributes beyond the requester id (tenant,
        priority).  The default delegates to :meth:`select` over the sorted
        input-fiber ids — byte-identical to the historical behaviour for
        every id-based policy.
        """
        return self.select(
            output_fiber,
            wavelength,
            sorted(r.input_fiber for r in requests),
            n,
        )

    def export_state(self) -> object | None:
        """JSON-encodable snapshot of the policy's mutable state.

        ``None`` for stateless policies (the default).  The durability
        layer persists this in shard snapshots and the simulator in
        :meth:`~repro.sim.engine.SlottedSimulator.export_state`, so a
        recovered run replays the same winner sequence.
        """
        return None

    def restore_state(self, state: object | None) -> None:
        """Inverse of :meth:`export_state` (accepts its JSON round-trip)."""
        if state is not None:
            raise InvalidParameterError(
                f"{type(self).__name__} is stateless; cannot restore "
                f"{state!r}"
            )

    def export_output_state(self, output_fiber: int) -> object | None:
        """The slice of :meth:`export_state` keyed by ``output_fiber``.

        The multi-process service keeps the live policy in its front and
        ships each contended shard's slice to the worker that schedules
        it, absorbing the slice the worker returns.  ``None`` for
        stateless policies and for an output fiber with no state yet.
        """
        return None

    def absorb_output_state(
        self, output_fiber: int, state: object | None
    ) -> None:
        """Graft a slice exported by another instance for ``output_fiber``
        (inverse of :meth:`export_output_state`; accepts its JSON
        round-trip).  Replaces any state this instance already holds for
        that output fiber; ``None`` resets it."""
        if state is not None:
            raise InvalidParameterError(
                f"{type(self).__name__} carries no per-output state; "
                f"cannot absorb {state!r}"
            )

    def _check(self, requesters: Sequence[Hashable], n: int) -> int:
        if n < 0:
            raise InvalidParameterError(f"grant count must be >= 0, got {n}")
        if len(set(requesters)) != len(requesters):
            raise InvalidParameterError("duplicate requesters in one selection")
        return min(n, len(requesters))


class FixedPriorityPolicy(GrantPolicy):
    """Deterministic: lowest requester identifiers win.

    Simple and stateless, but starves high-index input fibers under
    persistent contention — the unfairness the paper's random/round-robin
    recommendation avoids (demonstrated by the ``FAIR`` experiment).
    """

    def select(
        self,
        output_fiber: int,
        wavelength: int,
        requesters: Sequence[Hashable],
        n: int,
    ) -> list[Hashable]:
        n = self._check(requesters, n)
        return sorted(requesters)[:n]


class RandomPolicy(GrantPolicy):
    """Uniform random winners (the paper's "random selecting").

    Output fiber ``o`` draws from its own stream, derived from the seed
    and ``o`` alone (the :class:`~numpy.random.SeedSequence` child with
    spawn key ``(*seed.spawn_key, o)``), so one output's winners never
    depend on how often another output drew.  Streams are created on an
    output's first contended selection.
    """

    def __init__(self, seed: int | np.random.Generator | None = None) -> None:
        self._seed_seq = make_rng(seed).bit_generator.seed_seq
        self._streams: dict[int, np.random.Generator] = {}

    def _stream(self, output_fiber: int) -> np.random.Generator:
        rng = self._streams.get(output_fiber)
        if rng is None:
            root = self._seed_seq
            rng = self._streams[output_fiber] = np.random.default_rng(
                np.random.SeedSequence(
                    root.entropy,
                    spawn_key=(*root.spawn_key, output_fiber),
                    pool_size=root.pool_size,
                )
            )
        return rng

    def export_state(self) -> object:
        return {
            "streams": [
                [o, self.export_output_state(o)] for o in sorted(self._streams)
            ]
        }

    def restore_state(self, state: object | None) -> None:
        if not isinstance(state, dict) or "streams" not in state:
            raise InvalidParameterError(
                f"RandomPolicy needs a streams dict, got {state!r}"
            )
        self._streams = {}
        for o, stream_state in state["streams"]:
            self.absorb_output_state(int(o), stream_state)

    def export_output_state(self, output_fiber: int) -> object | None:
        rng = self._streams.get(output_fiber)
        if rng is None:
            return None
        # bit_generator.state is a plain dict of strings and (big) ints —
        # JSON-encodable as required; deep-copy via the JSON round trip so
        # the caller's snapshot cannot alias the live generator state.
        return json.loads(json.dumps(rng.bit_generator.state))

    def absorb_output_state(
        self, output_fiber: int, state: object | None
    ) -> None:
        self._streams.pop(output_fiber, None)
        if state is None:
            return
        if not isinstance(state, dict):
            raise InvalidParameterError(
                f"RandomPolicy needs a bit-generator state dict, got {state!r}"
            )
        self._stream(output_fiber).bit_generator.state = state

    def select(
        self,
        output_fiber: int,
        wavelength: int,
        requesters: Sequence[Hashable],
        n: int,
    ) -> list[Hashable]:
        n = self._check(requesters, n)
        if n == len(requesters):
            return list(requesters)
        rng = self._stream(output_fiber)
        if n == 1:
            # The common contention case; integers() costs a fraction of a
            # without-replacement choice() on these tiny pools.
            return [requesters[rng.integers(len(requesters))]]
        idx = rng.permutation(len(requesters))[:n]
        idx.sort()
        return [requesters[i] for i in idx]


class RoundRobinPolicy(GrantPolicy):
    """Rotating-priority winners (the paper's "round-robin scheduling").

    Keeps one rotation pointer per ``(output fiber, wavelength)`` pair,
    mirroring iSLIP's per-output grant pointers [8]: selection starts at the
    first requester *after* the previous slot's last winner (in identifier
    order, wrapping), so persistent contenders take turns.  Requester
    identifiers must be mutually comparable (e.g. input-fiber indices).
    """

    def __init__(self) -> None:
        self._pointers: dict[tuple[int, int], Hashable] = {}

    def export_state(self) -> object:
        return {
            "pointers": [
                [o, w, last] for (o, w), last in sorted(self._pointers.items())
            ]
        }

    def restore_state(self, state: object | None) -> None:
        if not isinstance(state, dict) or "pointers" not in state:
            raise InvalidParameterError(
                f"RoundRobinPolicy needs a pointers dict, got {state!r}"
            )
        self._pointers = {
            (int(o), int(w)): last for o, w, last in state["pointers"]
        }

    def export_output_state(self, output_fiber: int) -> object | None:
        pointers = [
            [o, w, last]
            for (o, w), last in sorted(self._pointers.items())
            if o == output_fiber
        ]
        return {"pointers": pointers} if pointers else None

    def absorb_output_state(
        self, output_fiber: int, state: object | None
    ) -> None:
        for key in [k for k in self._pointers if k[0] == output_fiber]:
            del self._pointers[key]
        if state is None:
            return
        if not isinstance(state, dict) or "pointers" not in state:
            raise InvalidParameterError(
                f"RoundRobinPolicy needs a pointers dict, got {state!r}"
            )
        for o, w, last in state["pointers"]:
            if int(o) != output_fiber:
                raise InvalidParameterError(
                    f"slice for output {output_fiber} contains a pointer "
                    f"for output {o}"
                )
            self._pointers[(int(o), int(w))] = last

    def select(
        self,
        output_fiber: int,
        wavelength: int,
        requesters: Sequence[Hashable],
        n: int,
    ) -> list[Hashable]:
        n = self._check(requesters, n)
        if n == 0:
            return []
        key = (output_fiber, wavelength)
        ordered = sorted(requesters)
        m = len(ordered)
        last = self._pointers.get(key)
        start = 0
        if last is not None:
            start = next((i for i, rid in enumerate(ordered) if rid > last), 0)
        winners = [ordered[(start + i) % m] for i in range(n)]
        self._pointers[key] = winners[-1]
        return winners

    def reset(self) -> None:
        """Forget all rotation pointers (start of a fresh simulation)."""
        self._pointers.clear()


class WeightedFairPolicy(GrantPolicy):
    """Deficit-weighted fair sharing across *tenants* (multi-tenant QoS).

    Each output fiber keeps one signed credit balance per tenant.  Every
    time a channel is handed out, each tenant still contending for it earns
    its weight in credits; the richest balance wins the channel and pays
    the round's total earnings back.  Over any window of ``G`` grants under
    persistent contention, tenant ``t`` therefore receives
    ``G · w_t / Σw ± O(1)`` channels — weighted fairness with an ``O(1)``
    deficit bound, the classic deficit/surplus round-robin argument.  A
    backlogged tenant's balance grows every allocation it loses, so it is
    served within ``2 · ceil(Σw / w_t)`` allocations — starvation-free
    (property-tested in ``tests/test_wfq_properties.py``; the exact bound
    from a fresh start is one deficit round of ``Σw`` allocations, in
    which each backlogged tenant wins *exactly* ``w_t`` channels).

    Within one tenant, winners rotate round-robin by input fiber (one
    pointer per ``(output, tenant)``), so no input fiber starves inside its
    tenant either.  All state is keyed by output fiber (balances *and*
    pointers), keeping the per-output schedulers independent, and
    :meth:`export_state` / :meth:`restore_state` round-trip through JSON so
    the journal/snapshot path and :meth:`~repro.sim.engine.SlottedSimulator
    .export_state` can carry it.

    ``weights`` maps tenant id → positive integer weight; unknown tenants
    get ``default_weight``.  Requests carry their tenant
    (:attr:`~repro.core.distributed.SlotRequest.tenant`); id-based
    :meth:`select` calls treat all requesters as tenant 0 (degrading to
    plain round-robin), so the policy stays usable anywhere a
    :class:`GrantPolicy` is.
    """

    def __init__(
        self,
        weights: "Mapping[int, int] | None" = None,
        default_weight: int = 1,
    ) -> None:
        if default_weight < 1:
            raise InvalidParameterError(
                f"default_weight must be >= 1, got {default_weight}"
            )
        self.default_weight = int(default_weight)
        self._weights: dict[int, int] = {}
        if weights:
            for tenant, w in weights.items():
                if int(w) < 1:
                    raise InvalidParameterError(
                        f"tenant {tenant} weight must be >= 1, got {w}"
                    )
                self._weights[int(tenant)] = int(w)
        # credits[output][tenant] -> signed balance; pointers[(output,
        # tenant)] -> last winning input fiber (within-tenant rotation).
        self._credits: dict[int, dict[int, int]] = {}
        self._pointers: dict[tuple[int, int], int] = {}

    def weight(self, tenant: int) -> int:
        return self._weights.get(tenant, self.default_weight)

    # -- state ---------------------------------------------------------------

    def export_state(self) -> object:
        return {
            "credits": [
                [o, t, c]
                for o, balances in sorted(self._credits.items())
                for t, c in sorted(balances.items())
            ],
            "pointers": [
                [o, t, last]
                for (o, t), last in sorted(self._pointers.items())
            ],
        }

    def restore_state(self, state: object | None) -> None:
        if (
            not isinstance(state, dict)
            or "credits" not in state
            or "pointers" not in state
        ):
            raise InvalidParameterError(
                f"WeightedFairPolicy needs a credits/pointers dict, "
                f"got {state!r}"
            )
        self._credits = {}
        for o, t, c in state["credits"]:
            self._credits.setdefault(int(o), {})[int(t)] = int(c)
        self._pointers = {
            (int(o), int(t)): int(last) for o, t, last in state["pointers"]
        }

    def reset(self) -> None:
        """Forget all balances and rotation pointers."""
        self._credits.clear()
        self._pointers.clear()

    def export_output_state(self, output_fiber: int) -> object | None:
        credits = [
            [output_fiber, t, c]
            for t, c in sorted(self._credits.get(output_fiber, {}).items())
        ]
        pointers = [
            [o, t, last]
            for (o, t), last in sorted(self._pointers.items())
            if o == output_fiber
        ]
        if not credits and not pointers:
            return None
        return {"credits": credits, "pointers": pointers}

    def absorb_output_state(
        self, output_fiber: int, state: object | None
    ) -> None:
        self._credits.pop(output_fiber, None)
        for key in [k for k in self._pointers if k[0] == output_fiber]:
            del self._pointers[key]
        if state is None:
            return
        if (
            not isinstance(state, dict)
            or "credits" not in state
            or "pointers" not in state
        ):
            raise InvalidParameterError(
                f"WeightedFairPolicy needs a credits/pointers dict, "
                f"got {state!r}"
            )
        for o, t, c in state["credits"]:
            if int(o) != output_fiber:
                raise InvalidParameterError(
                    f"slice for output {output_fiber} contains a balance "
                    f"for output {o}"
                )
            self._credits.setdefault(int(o), {})[int(t)] = int(c)
        for o, t, last in state["pointers"]:
            if int(o) != output_fiber:
                raise InvalidParameterError(
                    f"slice for output {output_fiber} contains a pointer "
                    f"for output {o}"
                )
            self._pointers[(int(o), int(t))] = int(last)

    # -- selection -----------------------------------------------------------

    def select(
        self,
        output_fiber: int,
        wavelength: int,
        requesters: Sequence[Hashable],
        n: int,
    ) -> list[Hashable]:
        n = self._check(requesters, n)
        return self._select_fibers(
            output_fiber, {0: sorted(requesters)}, n
        )

    def select_requests(
        self,
        output_fiber: int,
        wavelength: int,
        requests: "Sequence[SlotRequest]",
        n: int,
    ) -> list[int]:
        if len(requests) == 1 and n > 0:
            # Uncontended allocation (the common case): a lone contender
            # earns the whole pot and immediately spends it, so balances
            # are untouched — only the rotation pointer advances.
            r = requests[0]
            self._pointers[(output_fiber, r.tenant)] = r.input_fiber
            return [r.input_fiber]
        fibers = [r.input_fiber for r in requests]
        n = self._check(fibers, n)
        by_tenant: dict[int, list[int]] = {}
        for r in requests:
            by_tenant.setdefault(r.tenant, []).append(r.input_fiber)
        for contenders in by_tenant.values():
            contenders.sort()
        return self._select_fibers(output_fiber, by_tenant, n)

    def _select_fibers(
        self, output_fiber: int, by_tenant: dict[int, list[int]], n: int
    ) -> list:
        if n == 0:
            return []
        if len(by_tenant) == 1:
            # One tenant contending: every round it earns the pot and pays
            # it straight back, so balances cannot move — only the
            # within-tenant rotation runs.
            ((tenant, contenders),) = by_tenant.items()
            return [
                self._rotate(output_fiber, tenant, by_tenant)
                for _ in range(min(n, len(contenders)))
            ]
        balances = self._credits.setdefault(output_fiber, {})
        weights = {t: self.weight(t) for t in by_tenant}
        winners: list = []
        for _ in range(n):
            eligible = sorted(t for t, c in by_tenant.items() if c)
            if not eligible:
                break
            pot = 0
            for t in eligible:
                balances[t] = balances.get(t, 0) + weights[t]
                pot += weights[t]
            winner_tenant = max(eligible, key=lambda t: (balances[t], -t))
            balances[winner_tenant] -= pot
            winners.append(
                self._rotate(output_fiber, winner_tenant, by_tenant)
            )
        # A tenant whose contenders are exhausted keeps its balance: the
        # un-spent credit is exactly its deficit carried to the next slot.
        return winners

    def _rotate(
        self, output_fiber: int, tenant: int, by_tenant: dict[int, list[int]]
    ) -> int:
        """Within-tenant round-robin: first contender after the previous
        winner (in input-fiber order, wrapping); removes the pick."""
        contenders = by_tenant[tenant]
        key = (output_fiber, tenant)
        last = self._pointers.get(key)
        idx = 0
        if last is not None:
            idx = next(
                (i for i, f in enumerate(contenders) if f > last), 0
            )
        winner = contenders.pop(idx)
        self._pointers[key] = winner
        return winner
