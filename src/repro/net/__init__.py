"""repro.net — wire protocol and multi-process shard placement.

The paper's decomposition into independent per-output-fiber problems only
pays off when shards stop sharing one GIL.  This package provides the
pieces that take :class:`~repro.service.SchedulingService` out of a single
process:

* :mod:`repro.net.protocol` — typed binary messages (SUBMIT / GRANT /
  REJECT / TICK_ADVANCE / HELLO version handshake) over the shared
  length+CRC32 frame codec (:mod:`repro.util.framing`).
* :mod:`repro.net.server` / :mod:`repro.net.client` — the asyncio TCP
  front door and its raw connection, :class:`~repro.net.client.NetClient`.
  The reconnecting, retrying client is
  :class:`~repro.service.client.SchedulingClient` (``await
  SchedulingClient.connect(host, port)``) over
  :class:`~repro.net.client.NetLink`.
* :mod:`repro.net.placement` — consistent-hash shard→worker placement.
* :mod:`repro.net.procpool` / :mod:`repro.net.procservice` — shard
  workers in ``multiprocessing`` processes, each with its own journal
  directory, supervised and restartable; the parent keeps the same
  tick/admission semantics so grants stay bit-identical to
  :class:`~repro.sim.engine.SlottedSimulator`.
* :mod:`repro.net.loadgen` — drives the TCP front door from separate OS
  processes, each a :class:`~repro.service.client.SchedulingClient`
  reporting a :class:`~repro.service.client.LoadReport`.
* :mod:`repro.net.chaos` — a fault-injecting TCP proxy executing seeded
  :class:`~repro.faults.net.NetFaultPlan` wire faults, which the TCP
  :class:`~repro.service.client.SchedulingClient` rides out with
  reconnect/redelivery and heartbeat liveness.

See ``docs/SERVICE.md`` ("Wire protocol" and "Multi-process deployment").
"""

from repro.net.chaos import ChaosProxy
from repro.net.client import NetClient
from repro.net.placement import HashRing
from repro.net.procservice import ProcessShardedService
from repro.net.protocol import (
    PROTOCOL_VERSION,
    Bye,
    ErrorMsg,
    Grant,
    Hello,
    Migrate,
    Migrated,
    Ping,
    Pong,
    Reject,
    Submit,
    TickAdvance,
    TickDone,
    Welcome,
    decode_message,
    encode_message,
)
from repro.net.server import NetServer

_LAZY = ("run_load",)


def __getattr__(name: str):
    # Imported lazily so ``python -m repro.net.loadgen`` does not trip
    # runpy's found-in-sys.modules warning (once per load process).
    if name in _LAZY:
        from repro.net import loadgen

        return getattr(loadgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "PROTOCOL_VERSION",
    "Hello",
    "Welcome",
    "ErrorMsg",
    "Bye",
    "Submit",
    "Grant",
    "Reject",
    "TickAdvance",
    "TickDone",
    "Migrate",
    "Migrated",
    "Ping",
    "Pong",
    "encode_message",
    "decode_message",
    "NetServer",
    "NetClient",
    "ChaosProxy",
    "run_load",
    "HashRing",
    "ProcessShardedService",
]
