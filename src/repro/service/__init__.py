"""repro.service — the online scheduling service.

The paper proves the per-slot scheduling problem decomposes into ``N``
independent per-output sub-problems, each solvable in ``O(k)`` / ``O(dk)``.
This package serves that shape: one shard worker per output fiber
(:mod:`~repro.service.shard`), bounded per-shard request queues with
explicit backpressure (:mod:`~repro.service.queue`), one service front
that batches submissions into slot ticks (:mod:`~repro.service.tickloop`)
with its shards in process (:mod:`~repro.service.server`) or in worker
processes (:mod:`repro.net.procservice`), one client and load generator over an
in-process service or TCP (:mod:`~repro.service.client`), and built-in
telemetry (:mod:`~repro.service.telemetry`).

Quickstart
----------
>>> import asyncio
>>> from repro import BreakFirstAvailableScheduler, CircularConversion
>>> from repro.core.distributed import SlotRequest
>>> from repro.service import SchedulingService
>>> async def demo():
...     service = SchedulingService(
...         4, CircularConversion(6, 1, 1), BreakFirstAvailableScheduler()
...     )
...     future = service.submit_nowait(SlotRequest(0, 2, 3))
...     await service.tick()
...     return await future
>>> asyncio.run(demo()).channel
2

See ``docs/SERVICE.md`` for the architecture and
``benchmarks/bench_service.py`` for throughput/latency numbers.
"""

from repro.service.autoscaler import (
    Autoscaler,
    AutoscalerConfig,
    ScaleDecision,
)
from repro.service.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.service.client import (
    LoadGenerator,
    LoadReport,
    RetryBudget,
    RetryPolicy,
    SchedulingClient,
)
from repro.service.durability import (
    DurabilityConfig,
    DurabilityManager,
    RecoveredShardState,
    replay_journal,
)
from repro.service.edge import PendingRequest, SubmissionEdge
from repro.service.journal import (
    FileJournal,
    JournalRecord,
    MemoryJournal,
    RecordType,
    ShardJournal,
)
from repro.service.queue import (
    BoundedQueue,
    Offer,
    OverflowPolicy,
    TenantAdmission,
)
from repro.service.ratelimit import RateLimitConfig, TokenBucketLimiter
from repro.service.resharding import (
    MigrationReport,
    ShardMigrator,
    ShardMove,
    plan_waves,
    wave_bound,
)
from repro.service.server import (
    Rejected,
    RejectReason,
    SchedulingService,
    ServiceGrant,
)
from repro.service.shard import ShardWorker
from repro.service.snapshot import (
    FileSnapshotStore,
    MemorySnapshotStore,
    ShardSnapshot,
)
from repro.service.supervisor import ShardSupervisor, SupervisorConfig
from repro.service.telemetry import (
    Counter,
    Gauge,
    Histogram,
    SloAccountant,
    Telemetry,
    exponential_buckets,
)

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "BoundedQueue",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "Counter",
    "DurabilityConfig",
    "DurabilityManager",
    "FileJournal",
    "FileSnapshotStore",
    "Gauge",
    "Histogram",
    "JournalRecord",
    "LoadGenerator",
    "LoadReport",
    "MemoryJournal",
    "MemorySnapshotStore",
    "MigrationReport",
    "Offer",
    "OverflowPolicy",
    "PendingRequest",
    "RateLimitConfig",
    "RecordType",
    "RecoveredShardState",
    "Rejected",
    "RejectReason",
    "RetryBudget",
    "RetryPolicy",
    "ScaleDecision",
    "SchedulingClient",
    "SchedulingService",
    "ServiceGrant",
    "ShardJournal",
    "ShardMigrator",
    "ShardMove",
    "ShardSnapshot",
    "ShardSupervisor",
    "ShardWorker",
    "SloAccountant",
    "SubmissionEdge",
    "SupervisorConfig",
    "Telemetry",
    "TenantAdmission",
    "TokenBucketLimiter",
    "exponential_buckets",
    "plan_waves",
    "replay_journal",
    "wave_bound",
]
