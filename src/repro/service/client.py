"""The one scheduling client, its retry policy, and the load generator.

:class:`SchedulingClient` talks to an in-process service
(``SchedulingClient(service)``, outcomes ``ServiceGrant``/``Rejected``)
or over TCP (``await SchedulingClient.connect(host, port)``, outcomes
``proto.Grant``/``proto.Reject``).  Its :meth:`~SchedulingClient.submit`
is the one retry/redelivery loop: idempotency keys, slot deadlines,
redelivery after a transport loss, ``DUPLICATE`` waits, and — given a
:class:`RetryPolicy` — full-jitter backoff on transient-fault rejects
under an optional shared :class:`RetryBudget` (``docs/ROBUSTNESS.md``).

:class:`LoadGenerator` drives a client with the simulator's traffic
models (:mod:`repro.sim.traffic`), one model slot per tick, and returns a
:class:`LoadReport`; the process-based generator
(:mod:`repro.net.loadgen`) submits through the same :func:`stamped`
coroutine and tallies into the same report.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.core.distributed import SlotRequest
from repro.errors import (
    ConnectionLostError,
    InvalidParameterError,
    SimulationError,
)
from repro.service.server import Rejected, RejectReason
from repro.service.telemetry import exponential_buckets
from repro.sim.traffic import TrafficModel
from repro.util.rng import make_rng
from repro.util.validation import check_positive_int

__all__ = [
    "RetryPolicy",
    "RetryBudget",
    "SchedulingClient",
    "LoadReport",
    "LoadGenerator",
    "stamped",
]

#: Rejection reasons that are transient faults, worth retrying.
#: (``DUPLICATE`` is no verdict — the original is still in flight — so
#: :meth:`SchedulingClient.submit` always waits a tick and resubmits.)
RETRYABLE_REASONS = frozenset(
    {
        RejectReason.QUEUE_FULL,
        RejectReason.DROPPED,
        RejectReason.TIMED_OUT,
        RejectReason.SHARD_DOWN,
        RejectReason.CIRCUIT_OPEN,
    }
)

#: Attempt-count histogram buckets (1 … 32 attempts).
_ATTEMPT_BUCKETS = exponential_buckets(1.0, 2.0, 6)

#: While a ``DUPLICATE``'s original waits for its tick, the client looks
#: at its slot view every ``_TICK_POLL`` seconds for up to
#: ``_TICK_WAIT`` (a TCP client sees the server's clock only through its
#: own ticks, so one whose ticks come from elsewhere resubmits anyway).
_TICK_POLL = 0.001
_TICK_WAIT = 5.0

#: Ticks :meth:`LoadGenerator.run` runs after the last slot at most.
_MAX_DRAIN_TICKS = 10_000


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter.

    ``max_attempts`` bounds a submission's total tries (first attempt
    included); the sleep before retry ``i`` (0-based) is drawn uniformly
    from ``[0, min(max_delay, base_delay * 2**i)]``.  ``retryable``
    defaults to the transient-fault reasons (:data:`RETRYABLE_REASONS`).
    A TCP client's reconnect backoff uses the same delays; the client's
    ``reconnect_deadline``, not ``max_attempts``, bounds reconnecting.
    """

    max_attempts: int = 4
    base_delay: float = 0.001
    max_delay: float = 0.05
    retryable: frozenset[RejectReason] = RETRYABLE_REASONS

    def __post_init__(self) -> None:
        check_positive_int(self.max_attempts, "max_attempts")
        if self.base_delay < 0 or self.max_delay < 0:
            raise InvalidParameterError(
                f"delays must be >= 0, got base={self.base_delay}, "
                f"max={self.max_delay}"
            )

    def delay(self, attempt: int, rng) -> float:
        """Jittered sleep before retry number ``attempt`` (0-based)."""
        cap = min(self.max_delay, self.base_delay * 2.0 ** min(attempt, 64))
        return float(rng.uniform(0.0, cap)) if cap > 0 else 0.0


#: ``policy=None``: one try, no server reject retried.
_NO_RETRY = RetryPolicy(max_attempts=1, retryable=frozenset())

#: A TCP client's default reconnect backoff.
_RECONNECT = RetryPolicy(base_delay=0.05, max_delay=1.0)


class RetryBudget:
    """A shared token bucket that caps total retry amplification.

    Every retry spends one token; every grant refills
    ``refill_per_success`` tokens (capped at the initial ``tokens``).  An
    empty bucket stops retries, so a mass outage cannot amplify itself.
    Thread-safe (one budget may serve clients on several threads/loops;
    ``tests/test_concurrency_audit.py`` pins the accounting).
    """

    def __init__(
        self, tokens: float = 100.0, refill_per_success: float = 0.1
    ) -> None:
        if tokens <= 0:
            raise InvalidParameterError(f"tokens must be > 0, got {tokens}")
        if refill_per_success < 0:
            raise InvalidParameterError(
                f"refill_per_success must be >= 0, got {refill_per_success}"
            )
        self.capacity = float(tokens)
        self.refill_per_success = float(refill_per_success)
        self._tokens = float(tokens)
        self._lock = threading.Lock()

    @property
    def tokens(self) -> float:
        """Tokens currently available."""
        with self._lock:
            return self._tokens

    def try_spend(self) -> bool:
        """Take one token if available; False means stop retrying."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    def refill(self) -> None:
        with self._lock:
            self._tokens = min(
                self.capacity, self._tokens + self.refill_per_success
            )

    def __repr__(self) -> str:
        return f"RetryBudget(tokens={self.tokens:.1f}/{self.capacity:.0f})"


def _reason(outcome: Any) -> RejectReason | None:
    """The reject reason of either transport's outcome; None for a grant."""
    return getattr(outcome, "reason", None)


def _retrieve(future: asyncio.Future) -> None:
    """Done-callback for an abandoned attempt: mark its exception seen."""
    if not future.cancelled():
        future.exception()


class LocalLink:
    """The in-process transport: the service itself, which never drops."""

    #: Exceptions that mean "transport lost, redeliver" — none in process.
    transient: tuple = ()

    def __init__(self, service) -> None:
        self.service = service
        self.n_fibers, self.k = service.n_fibers, service.scheme.k
        self.telemetry = service.telemetry
        self.reconnects = 0

    @property
    def slot(self) -> int:
        return self.service.slot

    async def connection(self):
        return self.service

    async def settled_slot(self, conn) -> int:
        return self.service.slot

    @staticmethod
    def reject(request: SlotRequest, reason: RejectReason) -> Rejected:
        return Rejected(request, reason, None)

    async def tick(self, count: int) -> int:
        for _ in range(count):
            await self.service.tick()
        return self.service.slot

    async def close(self) -> None:
        pass


class SchedulingClient:
    """Submit requests to a scheduling service and drive its ticks.

    ``seed`` feeds the retry and reconnect jitter.  Retry telemetry
    (``client.retries``, ``client.retry_exhausted``,
    ``client.wait_timeouts``, ``client.attempts``) lands on
    :attr:`telemetry`: the service's registry in process, a private one
    over TCP.
    """

    def __init__(self, service, seed: int | None = None) -> None:
        self._bind(LocalLink(service), make_rng(seed))

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        seed: int | None = None,
        reconnect: RetryPolicy = _RECONNECT,
        reconnect_deadline: float = 10.0,
        heartbeat_interval: float | None = None,
        liveness_timeout: float | None = None,
    ) -> "SchedulingClient":
        """Connect over TCP.  A lost connection is re-opened with
        ``reconnect``'s delays for up to ``reconnect_deadline`` seconds;
        past that, :meth:`submit` resolves ``Reject(UNAVAILABLE)`` and
        :meth:`tick` raises :class:`~repro.errors.ConnectionLostError`.
        With ``heartbeat_interval`` set, a PING unanswered for
        ``liveness_timeout`` (default twice the interval) aborts the
        connection (see :class:`repro.net.client.NetLink`)."""
        from repro.net.client import NetLink

        rng = make_rng(seed)
        link = await NetLink.open(
            host, port, reconnect, reconnect_deadline,
            heartbeat_interval, liveness_timeout, rng,
        )
        client = cls.__new__(cls)
        client._bind(link, rng)
        return client

    def _bind(self, link, rng) -> None:
        self._link = link
        self._rng = rng
        self._id_prefix = os.urandom(6).hex()
        self._request_seq = 0
        #: Submits resolved ``UNAVAILABLE`` (reconnect deadline ran out).
        self.unavailable_rejects = 0
        self.telemetry = t = link.telemetry
        self._c_retries = t.counter("client.retries")
        self._c_retry_exhausted = t.counter("client.retry_exhausted")
        self._c_wait_timeouts = t.counter("client.wait_timeouts")
        self._h_attempts = t.histogram("client.attempts", _ATTEMPT_BUCKETS)

    async def __aenter__(self) -> "SchedulingClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self) -> None:
        """Close the TCP connection (in process: nothing to close)."""
        await self._link.close()

    @property
    def n_fibers(self) -> int:
        return self._link.n_fibers

    @property
    def k(self) -> int:
        return self._link.k

    @property
    def slot(self) -> int:
        """The slot the service runs next (over TCP: as last reported)."""
        return self._link.slot

    @property
    def reconnects(self) -> int:
        """Completed reconnects (0 while the first connection lives)."""
        return self._link.reconnects

    async def tick(self, count: int = 1) -> int:
        """Run ``count`` slot ticks; returns the slot the service runs
        next.  Over TCP this is idempotent across reconnects: after one,
        only the ticks the server has not yet run are requested."""
        check_positive_int(count, "count")
        return await self._link.tick(count)

    async def submit(
        self,
        request: SlotRequest,
        *,
        timeout_ticks: int | None = None,
        deadline_slot: int | None = None,
        request_id: str | None = None,
        policy: RetryPolicy | None = None,
        budget: RetryBudget | None = None,
        attempt_timeout: float | None = None,
    ):
        """Submit ``request``; return its one outcome.

        That is the grant, the first reject ``policy`` does not retry
        (``policy=None`` retries none), or the last reject once attempts
        or ``budget`` run out.  Every attempt and redelivery carries one
        ``request_id`` (stamped when not given).  ``deadline_slot`` (or,
        when not given, the current slot plus ``timeout_ticks``) is
        pinned at the first attempt; later attempts get what is left.
        A lost TCP connection is re-opened and the request redelivered,
        or ``Reject(UNAVAILABLE)`` once the reconnect deadline runs out.
        ``DUPLICATE`` means the original is still in flight: wait a tick
        and resubmit.  ``attempt_timeout`` abandons a wait without
        cancelling the attempt; with no attempt left that is a
        client-side ``TIMED_OUT``.
        """
        if attempt_timeout is not None and attempt_timeout <= 0:
            raise InvalidParameterError(
                f"attempt_timeout must be > 0, got {attempt_timeout}"
            )
        if timeout_ticks is not None and timeout_ticks < 0:
            raise InvalidParameterError(
                f"timeout_ticks must be >= 0, got {timeout_ticks}"
            )
        policy = policy if policy is not None else _NO_RETRY
        if request_id is None:
            self._request_seq += 1
            request_id = f"{self._id_prefix}-{self._request_seq}"
        link = self._link
        attempts = 0
        while True:
            try:
                conn = await link.connection()
            except ConnectionLostError:
                self.unavailable_rejects += 1
                outcome = link.reject(request, RejectReason.UNAVAILABLE)
                break
            deadline = {}
            if deadline_slot is not None or timeout_ticks is not None:
                slot = await link.settled_slot(conn)
                if deadline_slot is None:
                    deadline_slot = slot + timeout_ticks
                deadline["timeout_ticks"] = max(0, deadline_slot - slot)
            try:
                future = conn.submit_nowait(
                    request, request_id=request_id, **deadline
                )
                outcome = await self._wait(future, attempt_timeout)
            except link.transient:
                continue  # re-open the connection, redeliver the same id
            reason = None if outcome is None else _reason(outcome)
            if reason is RejectReason.DUPLICATE:
                await self._after_tick()
                continue
            attempts += 1
            if outcome is None:  # abandoned wait: retry like a fault
                pass
            elif reason is None:
                if budget is not None:
                    budget.refill()
                break
            elif reason not in policy.retryable:
                break
            if attempts >= policy.max_attempts or (
                budget is not None and not budget.try_spend()
            ):
                self._c_retry_exhausted.inc()
                break
            self._c_retries.inc()
            # Even a zero delay yields, so manually driven ticks (tests,
            # chaos drills) interleave with the retry loop.
            await asyncio.sleep(policy.delay(attempts - 1, self._rng))
        self._h_attempts.observe(attempts)
        if outcome is None:
            return link.reject(request, RejectReason.TIMED_OUT)
        return outcome

    async def _after_tick(self) -> None:
        loop = asyncio.get_running_loop()
        slot, give_up = self.slot, loop.time() + _TICK_WAIT
        while self.slot == slot and loop.time() < give_up:
            await asyncio.sleep(_TICK_POLL)

    async def _wait(self, future: asyncio.Future, attempt_timeout):
        """The attempt's outcome, or None once ``attempt_timeout`` ran
        out.  ``shield()`` keeps the abandoned attempt alive: dedup turns
        its resubmission into a replayed grant or a ``DUPLICATE``."""
        if attempt_timeout is None:
            return await future
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), attempt_timeout
            )
        except asyncio.TimeoutError:
            self._c_wait_timeouts.inc()
            future.add_done_callback(_retrieve)
            return None


async def stamped(
    client: SchedulingClient, request: SlotRequest, latencies: list[float]
):
    """Submit ``request`` once; append its submit→grant latency (seconds)
    to ``latencies`` when granted.  Returns the outcome."""
    t0 = time.perf_counter()
    outcome = await client.submit(request)
    if _reason(outcome) is None:
        latencies.append(time.perf_counter() - t0)
    return outcome


@dataclass
class LoadReport:
    """What a load run delivered: every offered request resolved once,
    as a grant, a reject, or an error (a server ERROR reply)."""

    offered: int
    granted: int
    rejected: Counter  # RejectReason -> count
    errors: int
    slots: int
    wall_seconds: float
    #: Exact per-request submit→grant latencies, seconds, sorted ascending.
    grant_latencies: list[float] = field(repr=False, default_factory=list)
    #: Every outcome (or exception) in submission order.
    outcomes: list = field(repr=False, default_factory=list)

    @classmethod
    def tally(cls, outcomes, latencies, slots, wall_seconds) -> "LoadReport":
        """Build a report from :func:`stamped` results, exceptions included
        (``asyncio.gather(..., return_exceptions=True)``)."""
        errors = sum(isinstance(o, BaseException) for o in outcomes)
        reasons = [
            _reason(o) for o in outcomes if not isinstance(o, BaseException)
        ]
        rejected = Counter(r for r in reasons if r is not None)
        return cls(
            offered=len(outcomes),
            granted=reasons.count(None),
            rejected=rejected,
            errors=errors,
            slots=slots,
            wall_seconds=wall_seconds,
            grant_latencies=sorted(latencies),
            outcomes=list(outcomes),
        )

    @classmethod
    def merge(cls, reports, slots, wall_seconds) -> "LoadReport":
        """Sum per-process reports (their ``outcomes`` are dropped)."""
        return cls(
            offered=sum(r.offered for r in reports),
            granted=sum(r.granted for r in reports),
            rejected=sum((r.rejected for r in reports), Counter()),
            errors=sum(r.errors for r in reports),
            slots=slots,
            wall_seconds=wall_seconds,
            grant_latencies=sorted(
                x for r in reports for x in r.grant_latencies
            ),
        )

    @property
    def rejected_contention(self) -> int:
        return self.rejected[RejectReason.CONTENTION]

    @property
    def rejected_source(self) -> int:
        return self.rejected[RejectReason.SOURCE_BLOCKED]

    @property
    def rejected_queue(self) -> int:
        return self.rejected[RejectReason.QUEUE_FULL]

    @property
    def dropped(self) -> int:
        return self.rejected[RejectReason.DROPPED]

    @property
    def timed_out(self) -> int:
        return self.rejected[RejectReason.TIMED_OUT]

    @property
    def conserved(self) -> bool:
        """Every offered request resolved exactly once."""
        resolved = self.granted + sum(self.rejected.values()) + self.errors
        return self.offered == resolved

    @property
    def requests_per_sec(self) -> float:
        """Sustained offered-request throughput over the run."""
        return self.offered / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def ticks_per_second(self) -> float:
        return self.slots / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def grant_rate(self) -> float:
        return self.granted / self.offered if self.offered else 0.0

    def latency_quantile(self, q: float) -> float:
        """Exact ``q``-quantile of the grant latencies (0.0 when none)."""
        lat = self.grant_latencies
        if not lat:
            return 0.0
        idx = min(len(lat) - 1, max(0, round(q * (len(lat) - 1))))
        return lat[idx]

    @property
    def p50_latency(self) -> float:
        return self.latency_quantile(0.50)

    @property
    def p99_latency(self) -> float:
        return self.latency_quantile(0.99)


class LoadGenerator:
    """Drive a :class:`SchedulingClient` with a :mod:`repro.sim.traffic`
    arrival process: submit slot ``t``'s packets, tick, repeat — then tick
    until every request has resolved.  Requests are submitted once with
    no deadline, so for one ``seed`` the in-process and TCP transports
    resolve every request identically (``tests/test_client.py``).
    """

    def __init__(
        self,
        client: SchedulingClient,
        traffic: TrafficModel,
        seed: int | None = None,
    ) -> None:
        if traffic.n_fibers != client.n_fibers or traffic.k != client.k:
            raise ValueError(
                f"traffic model is {traffic.n_fibers}×{traffic.k}, "
                f"service is {client.n_fibers}×{client.k}"
            )
        self.client = client
        self.traffic = traffic
        self._rng = make_rng(seed)

    async def run(self, n_slots: int) -> LoadReport:
        """Offer ``n_slots`` slots of traffic; returns the load report."""
        check_positive_int(n_slots, "n_slots")
        client = self.client
        tasks: list[asyncio.Task] = []
        latencies: list[float] = []
        t_start = time.perf_counter()
        for slot in itertools.count():
            if slot < n_slots:
                for p in self.traffic.arrivals(slot, self._rng):
                    request = SlotRequest(
                        p.input_fiber, p.wavelength, p.output_fiber,
                        p.duration, p.priority, p.tenant,
                    )
                    tasks.append(
                        asyncio.ensure_future(
                            stamped(client, request, latencies)
                        )
                    )
            # One loop pass: submits go out before the tick, and the last
            # tick's outcomes are stamped.
            await asyncio.sleep(0)
            if slot >= n_slots and all(t.done() for t in tasks):
                break
            if slot >= n_slots + _MAX_DRAIN_TICKS:
                raise SimulationError(
                    f"requests unresolved {_MAX_DRAIN_TICKS} ticks after "
                    "the last slot"
                )
            await client.tick()
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        return LoadReport.tally(
            outcomes, latencies, n_slots, time.perf_counter() - t_start
        )
