"""repro.net — wire protocol and multi-process shard placement.

The paper's decomposition into independent per-output-fiber problems only
pays off when shards stop sharing one GIL.  This package provides the
pieces that take :class:`~repro.service.SchedulingService` out of a single
process:

* :mod:`repro.net.protocol` — typed binary messages (SUBMIT / GRANT /
  REJECT / TICK_ADVANCE / HELLO version handshake) over the shared
  length+CRC32 frame codec (:mod:`repro.util.framing`).
* :mod:`repro.net.server` / :mod:`repro.net.client` — the asyncio TCP
  front door and its client.
* :mod:`repro.net.placement` — consistent-hash shard→worker placement.
* :mod:`repro.net.procpool` / :mod:`repro.net.procservice` — shard
  workers in ``multiprocessing`` processes, each with its own journal
  directory, supervised and restartable; the parent keeps the same
  tick/admission semantics so grants stay bit-identical to
  :class:`~repro.sim.engine.SlottedSimulator`.
* :mod:`repro.net.loadgen` — a process-based load generator that drives
  the TCP front door from separate OS processes.
* :mod:`repro.net.chaos` — a fault-injecting TCP proxy executing seeded
  :class:`~repro.faults.net.NetFaultPlan` wire faults, paired with
  :class:`~repro.net.client.ResilientNetClient`'s reconnect/redelivery
  and heartbeat liveness.

See ``docs/SERVICE.md`` ("Wire protocol" and "Multi-process deployment").
"""

from repro.net.chaos import ChaosProxy
from repro.net.client import NetClient, ResilientNetClient
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

_LAZY = ("NetLoadReport", "run_load")


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
    "ResilientNetClient",
    "ChaosProxy",
    "NetLoadReport",
    "run_load",
    "HashRing",
    "ProcessShardedService",
]
