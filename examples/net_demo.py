#!/usr/bin/env python
"""Net demo: the scheduling service over TCP with multi-process shards.

Brings up the full PR-6 deployment shape in one script:

1. a :class:`~repro.net.procservice.ProcessShardedService` — each output
   fiber's shard lives in one of two **worker OS processes**, chosen by
   consistent-hash placement, each journaling grants write-ahead to its
   own directory;
2. a :class:`~repro.net.server.NetServer` TCP front door speaking the
   versioned binary wire protocol (length+CRC32 frames, HELLO/WELCOME
   handshake, seq-correlated SUBMIT_BATCH → OUTCOMES rows);
3. a :class:`~repro.net.client.NetClient` driving it like a remote
   client would — then SIGKILLs a worker mid-run and shows journal
   recovery handing back the exact same channel clocks.

Run:  PYTHONPATH=src python examples/net_demo.py
"""

import asyncio
import tempfile

from repro import FirstAvailableScheduler, NonCircularConversion
from repro.core.distributed import SlotRequest
from repro.net import NetClient, NetServer, ProcessShardedService
from repro.net import protocol as proto


async def demo(journal_dir: str) -> None:
    # --- 1. Two shard worker processes behind a TCP front door.
    service = ProcessShardedService(
        4,
        NonCircularConversion(k=3, e=1, f=1),
        FirstAvailableScheduler(),
        n_workers=2,
        journal_dir=journal_dir,
    )
    print(f"shard placement (consistent hash): {service.placement}")

    async with NetServer(service) as server:
        # --- 2. A client connects; the handshake checks the protocol version.
        client = await NetClient.connect("127.0.0.1", server.port)
        print(
            f"handshake: protocol v{client.version}, "
            f"{client.n_fibers} fibers x {client.k} wavelengths"
        )

        # --- 3. Pipelined submissions over the wire, resolved by a tick.
        futures = [
            client.submit_nowait(SlotRequest(i, i % client.k, i % 2, duration=3))
            for i in range(4)
        ]
        done = await client.tick(1)
        outcomes = await asyncio.gather(*futures)
        grants = sum(1 for o in outcomes if isinstance(o, proto.Grant))
        rejects = sum(1 for o in outcomes if isinstance(o, proto.Reject))
        print(
            f"slot {done.slot}: {grants} granted, {rejects} rejected "
            f"over TCP (conservation: {grants + rejects == len(futures)})"
        )

        # --- 4. Kill a worker process mid-run; journal replay rebuilds
        # its shards' channel clocks bit-exactly on respawn.
        busy_before = service.worker_busy(0)
        victim = service.placement[0]
        service.kill_worker(victim)
        print(f"killed worker {victim} (owns shard 0)")
        busy_after = service.worker_busy(0)
        print(
            f"respawned from journal: busy[] {busy_after} "
            f"matches pre-kill state exactly: {busy_after == busy_before}"
        )

        # --- 5. The clock keeps running: later ticks decay the holds.
        await client.tick(2)
        print(f"after 2 more ticks: busy[] {service.worker_busy(0)}")

        await client.close()
    await service.stop()
    print("clean shutdown: sockets closed, workers stopped")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        asyncio.run(demo(tmp))


if __name__ == "__main__":
    main()
