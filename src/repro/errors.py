"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from :class:`ReproError`
so that callers can catch library failures without masking programming errors
(``TypeError``/``ValueError`` raised by NumPy, etc. still propagate).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidParameterError",
    "InvalidGraphError",
    "InvalidMatchingError",
    "NotConvexError",
    "ScheduleError",
    "HardwareModelError",
    "SimulationError",
    "UncrossingDidNotConvergeError",
    "FaultError",
    "ShardDownError",
    "CircuitOpenError",
    "RetryExhaustedError",
    "DurabilityError",
    "JournalCrashError",
    "MigrationError",
    "CrashPointError",
    "ProtocolError",
    "ConnectionLostError",
    "FramingError",
    "WorkerProcessError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidParameterError(ReproError, ValueError):
    """A constructor or function argument is outside its documented domain."""


class InvalidGraphError(ReproError, ValueError):
    """A graph object violates a structural requirement (e.g. vertex range)."""


class InvalidMatchingError(ReproError, ValueError):
    """An edge set claimed to be a matching is not vertex-disjoint or uses
    edges absent from the underlying graph."""


class NotConvexError(ReproError, ValueError):
    """An algorithm requiring a convex bipartite graph received a graph whose
    adjacency sets are not intervals in the given right-vertex ordering."""


class ScheduleError(ReproError, RuntimeError):
    """A scheduler produced (or was asked to validate) an inconsistent
    schedule, e.g. a grant to an occupied or non-adjacent channel."""


class HardwareModelError(ReproError, RuntimeError):
    """The register-level hardware model detected a physically impossible
    state, e.g. two simultaneously active inputs at one optical combiner."""


class SimulationError(ReproError, RuntimeError):
    """The slotted simulator detected an inconsistent state, e.g. a grant for
    a packet that never arrived."""


class FaultError(ReproError, RuntimeError):
    """Base class of the fault/degradation hierarchy: an error caused by an
    injected or detected component failure rather than by bad inputs.

    Catch this to handle *operational* failures (dark channels, degraded
    converters, dead shard workers) separately from programming errors."""


class ShardDownError(FaultError):
    """A service shard worker is down: it crashed (injected or organic) and
    has not been restarted, so its queue cannot serve requests.  Raised
    ``from`` the causing exception when the crash was organic, so the
    original defect stays on the chain."""


class CircuitOpenError(FaultError):
    """A per-shard circuit breaker is open: the shard failed repeatedly and
    submissions are being short-circuited until the half-open probe
    succeeds."""


class RetryExhaustedError(FaultError):
    """A retrying client gave up: the attempt limit or the shared retry
    budget was exhausted before any attempt succeeded."""


class DurabilityError(ReproError, RuntimeError):
    """The durability layer detected an inconsistency it cannot repair:
    a corrupt snapshot with no valid predecessor, or a journal replay that
    disagrees with live state it must match (e.g. the surviving queue)."""


class JournalCrashError(FaultError):
    """A simulated process death severed a journal write mid-record
    (fault injection only — see :class:`repro.faults.TornWriter`).  Real
    crashes do not raise; they just leave the same torn tail behind."""


class MigrationError(ReproError, RuntimeError):
    """A live shard migration cannot proceed or verify: the handoff
    payload is corrupt, the move is ill-formed (source does not own the
    shard, destination is retired), or the adopted replica's replayed
    state disagrees with what the source exported.  The placement is only
    ever flipped *after* verification, so a raised migration leaves the
    source authoritative and the service serving."""


class CrashPointError(FaultError):
    """A simulated process death at a named crash point (fault injection
    only — see :class:`repro.faults.CrashPoints`).  Tests arm a point,
    catch this, and assert the interrupted operation can be re-driven to
    a bit-identical end state."""


class ProtocolError(ReproError, RuntimeError):
    """The wire protocol (:mod:`repro.net`) received bytes it cannot act
    on: an unknown message type, a malformed body, a handshake violation,
    or no protocol version in common.  Always a *typed* failure — corrupt
    or truncated network input must surface as this (or a subclass), never
    as a bare ``struct.error`` or a reader that hangs."""


class ConnectionLostError(ProtocolError):
    """The transport under a :mod:`repro.net` connection died mid-flight:
    reset, EOF inside a frame, or a failed liveness probe.  Unlike its
    parent this is *retryable* — the peer said nothing wrong, the wire
    just went away — so a TCP :class:`repro.service.SchedulingClient`
    reconnects and redelivers on exactly this type (and on
    :class:`FramingError`, where killing the connection is the protocol's
    own corruption response)."""


class FramingError(ProtocolError):
    """A framed byte *stream* is corrupt: CRC mismatch or an implausible
    length header.  Fatal to the connection — after corruption there is no
    way to resynchronize on the next frame boundary.  (Journal decoding
    never raises this; torn journal tails are tolerated by construction —
    see :func:`repro.util.framing.decode_frames`.)"""


class WorkerProcessError(FaultError):
    """A shard worker *process* failed in a way its parent cannot repair
    by respawning: repeated crash loops, a sick reply, or a failure during
    recovery itself.  Single crashes do not raise — the pool restarts the
    process and replays the in-flight tick (see :mod:`repro.net.procpool`)."""


class UncrossingDidNotConvergeError(ReproError, RuntimeError):
    """The Lemma-1 uncrossing procedure exceeded its iteration guard.

    This indicates a bug (the paper proves the procedure terminates); the
    guard exists so that a defect surfaces as a diagnosable error instead of
    an infinite loop.
    """
