"""Reference outcomes the benchmark checks every run against.

TCP workloads: each request's outcome is recomputed for the same seed with
``schedule_output_fiber`` and ``FixedPriorityPolicy`` (memo cache off), under
the service's tick rules: shards in fiber order, requests in arrival order,
blocked at source while the input channel is held, channels held for the
granted duration.  An outcome is a code per request, in arrival order: the
granted output channel (>= 0), :data:`CONTENTION` or :data:`BLOCKED`.

References are cached under ``.cache/`` next to this file, keyed by the
workload, the seed and a digest of everything the reference is computed
from (the workload's parameters, ``src/repro`` and this directory's
reference and traffic code), so a cached outcome is reused only by the
code that computed it.  A TCP reference keeps the channel state at its last
slot, so a longer run extends the cached prefix instead of recomputing it.

sim-perfd: the per-slot grant counts of ``SlottedSimulator`` (BFA, memo
cache off) on the same seed.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path

import numpy as np

from workloads import ArrivalStream

CONTENTION = -1
BLOCKED = -2

HERE = Path(__file__).resolve().parent
CACHE_DIR = HERE / ".cache"


@lru_cache(maxsize=None)
def _code_digest() -> str:
    h = hashlib.sha256()
    sources = sorted((HERE.parent / "src" / "repro").rglob("*.py"))
    for path in [*sources, HERE / "reference.py", HERE / "workloads.py"]:
        h.update(str(path.relative_to(HERE.parent)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cache_path(kind: str, wl, seed: int) -> Path:
    h = hashlib.sha256(_code_digest().encode())
    h.update(repr(wl).encode())
    return CACHE_DIR / f"{kind}-{wl.name}-{seed}-{h.hexdigest()[:16]}.npz"


def _load(path: Path):
    if not path.exists():
        return None
    with np.load(path, allow_pickle=False) as z:
        return {k: z[k] for k in z.files}


def tcp_reference(wl, seed: int, n_slots: int) -> list[list[int]]:
    """Outcome codes of the seed's first ``n_slots`` slots."""
    from repro.core.distributed import schedule_output_fiber
    from repro.core.policies import FixedPriorityPolicy

    path = _cache_path("tcp", wl, seed)
    cached = _load(path)
    n, k = wl.n_fibers, wl.k
    if cached is not None:
        codes = cached["codes"].tolist()
        offsets = cached["offsets"].tolist()
        slots = [codes[a:b] for a, b in zip(offsets, offsets[1:])]
        in_busy = cached["in_busy"].tolist()
        out_busy = cached["out_busy"].tolist()
    else:
        slots = []
        in_busy = [[0] * k for _ in range(n)]
        out_busy = [[0] * k for _ in range(n)]
    if len(slots) >= n_slots:
        return slots[:n_slots]

    stream = ArrivalStream(wl, seed)
    for _ in range(len(slots)):
        stream.next_batch()
    scheme = wl.scheme()
    scheduler = wl.scheduler(cache=None)
    policy = FixedPriorityPolicy()
    while len(slots) < n_slots:
        reqs = stream.next_requests()
        codes = [CONTENTION] * len(reqs)
        by_output: dict[int, list[int]] = {}
        for idx, r in enumerate(reqs):
            by_output.setdefault(r.output_fiber, []).append(idx)
        seen: set[tuple[int, int]] = set()
        work = []
        for o in sorted(by_output):
            survivors = []
            for idx in by_output[o]:
                r = reqs[idx]
                channel_in = (r.input_fiber, r.wavelength)
                if in_busy[r.input_fiber][r.wavelength] > 0 or channel_in in seen:
                    codes[idx] = BLOCKED
                else:
                    seen.add(channel_in)
                    survivors.append(idx)
            if survivors:
                work.append((o, survivors))
        for o, survivors in work:
            _, granted, _ = schedule_output_fiber(
                scheme,
                scheduler,
                policy,
                o,
                [reqs[i] for i in survivors],
                [b == 0 for b in out_busy[o]],
            )
            index = {
                (reqs[i].input_fiber, reqs[i].wavelength): i for i in survivors
            }
            for g in granted:
                r = g.request
                codes[index[(r.input_fiber, r.wavelength)]] = g.channel
                out_busy[o][g.channel] = r.duration
                in_busy[r.input_fiber][r.wavelength] = r.duration
        for row in in_busy + out_busy:
            for b, left in enumerate(row):
                if left > 0:
                    row[b] = left - 1
        slots.append(codes)

    CACHE_DIR.mkdir(exist_ok=True)
    offsets = np.cumsum([0] + [len(s) for s in slots])
    np.savez(
        path,
        codes=np.fromiter(
            (c for s in slots for c in s), dtype=np.int16, count=int(offsets[-1])
        ),
        offsets=offsets,
        in_busy=np.asarray(in_busy, dtype=np.int64),
        out_busy=np.asarray(out_busy, dtype=np.int64),
    )
    return slots


def sim_reference(wl, seed: int, n_slots: int) -> tuple[list[int], list[int]]:
    """``(granted, offered)`` per slot from ``SlottedSimulator``."""
    from repro.sim.engine import SlottedSimulator

    path = _cache_path(f"sim{n_slots}", wl, seed)
    cached = _load(path)
    if cached is not None:
        return cached["granted"].tolist(), cached["offered"].tolist()
    sim = SlottedSimulator(
        wl.n_fibers, wl.scheme(), wl.scheduler(cache=None), wl.traffic(),
        seed=seed,
    )
    granted, offered = [], []
    for _ in range(n_slots):
        c = sim.step()
        granted.append(int(c["granted"]))
        offered.append(int(c["offered"]))
    CACHE_DIR.mkdir(exist_ok=True)
    np.savez(path, granted=np.asarray(granted), offered=np.asarray(offered))
    return granted, offered
