"""The batch tick function equals the per-fiber path, row by row.

:func:`repro.core.distributed.schedule_tick` schedules a whole tick's
output fibers with one batch-kernel call and checks the assign matrix as
one array; :func:`repro.core.distributed.schedule_output_fiber` resolves
one fiber at a time through the scheduler object and
:func:`~repro.core.base.validate_schedule`.  The property below drives both
with the same random tick — FA and BFA, random request sets and masks
(including rows with no free channel), the three stateful and stateless
grant policies, mixed priority classes, degraded inputs and full-range
conversion — and requires identical grants, rejects and policy state.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.break_first_available import BreakFirstAvailableScheduler
from repro.core.distributed import (
    FiberRow,
    SlotRequest,
    schedule_output_fiber,
    schedule_tick,
)
from repro.core.first_available import FirstAvailableScheduler
from repro.core.policies import (
    FixedPriorityPolicy,
    RandomPolicy,
    WeightedFairPolicy,
)
from repro.errors import ScheduleError, ShardDownError
from repro.graphs.conversion import (
    CircularConversion,
    FullRangeConversion,
    NonCircularConversion,
)


def _policy(kind, seed):
    if kind == "fixed":
        return FixedPriorityPolicy()
    if kind == "random":
        return RandomPolicy(seed)
    return WeightedFairPolicy({0: 1, 1: 2, 2: 3})


@st.composite
def ticks(draw):
    family = draw(st.sampled_from(["circular", "noncircular", "full"]))
    k = draw(st.integers(3, 9))
    if family == "full":
        scheme = FullRangeConversion(k)
        scheduler_cls = draw(
            st.sampled_from(
                [FirstAvailableScheduler, BreakFirstAvailableScheduler]
            )
        )
    else:
        e = draw(st.integers(0, k - 1))
        f = draw(st.integers(0, k - 1 - e))
        if family == "circular":
            scheme = CircularConversion(k, e, f)
            scheduler_cls = BreakFirstAvailableScheduler
        else:
            scheme = NonCircularConversion(k, e, f)
            scheduler_cls = FirstAvailableScheduler
    n = draw(st.integers(1, 5))
    classes = draw(st.sampled_from([(0,), (1,), (0, 1, 2)]))
    channels = draw(
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)))
    )
    requests = [
        SlotRequest(
            i,
            w,
            draw(st.integers(0, n - 1)),
            priority=draw(st.sampled_from(classes)),
            tenant=draw(st.integers(0, 2)),
        )
        for i, w in sorted(channels)
    ]
    masks = [
        draw(st.lists(st.booleans(), min_size=k, max_size=k))
        for _ in range(n)
    ]
    dark = draw(st.sampled_from([None, *range(n)]))
    if dark is not None:
        masks[dark] = [False] * k  # a row with no free channel
    degradations = draw(
        st.dictionaries(
            st.integers(0, n - 1),
            st.tuples(st.integers(0, scheme.e), st.integers(0, scheme.f)),
            max_size=2,
        )
    )
    policy = draw(st.sampled_from(["fixed", "random", "wfq"]))
    return (
        scheme, scheduler_cls(cache=None), n, requests, masks,
        degradations or None, policy, draw(st.integers(0, 2**16)),
    )


def _rows(scheduler, n, requests, masks):
    rows = []
    for o in range(n):
        mine = [r for r in requests if r.output_fiber == o]
        if mine:
            rows.append(FiberRow(o, mine, masks[o], scheduler))
    return rows


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(ticks())
def test_schedule_tick_equals_schedule_output_fiber(tick):
    scheme, scheduler, n, requests, masks, degradations, kind, seed = tick
    rows = _rows(scheduler, n, requests, masks)
    ref_policy = _policy(kind, seed)
    expected = [
        schedule_output_fiber(
            scheme, scheduler, ref_policy, row.output_fiber, row.requests,
            row.available, degradations,
        )[1:]
        for row in rows
    ]
    policy = _policy(kind, seed)
    got = schedule_tick(scheme, policy, rows, degradations)
    assert got == expected
    assert policy.export_state() == ref_policy.export_state()


# -- which rows take the kernel -------------------------------------------


class _CountingBFA(BreakFirstAvailableScheduler):
    def __init__(self):
        super().__init__(cache=None)
        self.calls = 0

    def schedule(self, rg):
        self.calls += 1
        return super().schedule(rg)


SCHEME = CircularConversion(6, 1, 1)


def _tick_rows(scheduler):
    """Three fibers: rows 0 and 2 single-class, row 1 on λ5 only."""
    return [
        FiberRow(0, [SlotRequest(0, 0, 0), SlotRequest(1, 0, 0)],
                 [True] * 6, scheduler),
        FiberRow(1, [SlotRequest(0, 5, 1), SlotRequest(2, 5, 1)],
                 [True] * 6, scheduler),
        FiberRow(2, [SlotRequest(1, 3, 2), SlotRequest(2, 3, 2)],
                 [True, False, True, True, True, True], scheduler),
    ]


def _reference(rows):
    return [
        schedule_output_fiber(
            SCHEME, row.scheduler, FixedPriorityPolicy(), row.output_fiber,
            row.requests, row.available,
        )[1:]
        for row in rows
    ]


class TestRouting:
    def test_single_class_rows_skip_the_scheduler_object(self):
        scheduler = _CountingBFA()
        rows = _tick_rows(scheduler)
        assert schedule_tick(SCHEME, FixedPriorityPolicy(), rows) == (
            _reference(_tick_rows(BreakFirstAvailableScheduler(cache=None)))
        )
        assert scheduler.calls == 0

    def test_mixed_class_and_degraded_rows_take_the_fallback(self):
        scheduler = _CountingBFA()
        rows = _tick_rows(scheduler)
        rows[0] = rows[0]._replace(
            requests=[SlotRequest(0, 0, 0), SlotRequest(1, 0, 0, priority=1)]
        )
        seen = []

        def fallback(row):
            seen.append(row.output_fiber)
            return schedule_output_fiber(
                SCHEME, row.scheduler, FixedPriorityPolicy(),
                row.output_fiber, row.requests, row.available, {2: (0, 0)},
            )[1:]

        schedule_tick(
            SCHEME, FixedPriorityPolicy(), rows, {2: (0, 0)}, fallback
        )
        # Row 0 mixes classes; rows 1 and 2 carry input 2 (degraded).
        assert seen == [0, 1, 2]

    def test_capabilities(self):
        assert (
            FirstAvailableScheduler().batch_kernel(
                NonCircularConversion(6, 1, 1)
            )
            is kernels.batch_first_available
        )
        assert (
            BreakFirstAvailableScheduler().batch_kernel(SCHEME)
            is kernels.batch_break_first_available
        )
        assert FirstAvailableScheduler().batch_kernel(SCHEME) is None
        assert (
            BreakFirstAvailableScheduler().batch_kernel(
                NonCircularConversion(6, 1, 1)
            )
            is None
        )
        assert (
            BreakFirstAvailableScheduler().batch_kernel(
                CircularConversion(6, 2, 3)
            )
            is None
        )  # d = k: full range keeps the per-fiber path


# -- the array check and crash isolation ------------------------------------


def _corrupting(defect):
    """A BFA kernel that corrupts the row carrying λ5 with ``defect``."""
    real = kernels.batch_break_first_available

    def kernel(req, avail, e, f, *, check=True):
        assign = real(req, avail, e, f, check=check)
        for j in np.flatnonzero(req[:, 5]).tolist():
            defect(assign[j])
        return assign

    return kernel


def _out_of_window(row):
    row[:] = -1
    row[2] = 5  # λ5 reaches {4, 5, 0}


def _overgrant(row):
    row[:] = -1
    row[4], row[5], row[0] = 5, 5, 5  # three grants, two requests


def _bad_value(row):
    row[3] = 6  # not a wavelength of k = 6


@pytest.mark.parametrize(
    "defect, message",
    [
        (_out_of_window, "converted"),
        (_overgrant, "arrived"),
        (_bad_value, "outside"),
    ],
)
def test_failed_row_crashes_only_its_shard(monkeypatch, defect, message):
    monkeypatch.setattr(
        kernels, "batch_break_first_available", _corrupting(defect)
    )
    rows = _tick_rows(BreakFirstAvailableScheduler(cache=None))
    got = schedule_tick(SCHEME, FixedPriorityPolicy(), rows)
    expected = _reference(_tick_rows(BreakFirstAvailableScheduler(cache=None)))
    assert got[0] == expected[0] and got[2] == expected[2]
    assert isinstance(got[1], ShardDownError)
    assert isinstance(got[1].__cause__, ScheduleError)
    assert message in str(got[1].__cause__)


def test_grant_on_unavailable_channel_fails_the_check(monkeypatch):
    def grab_dark(row):
        row[:] = -1
        row[0] = 5

    monkeypatch.setattr(
        kernels, "batch_break_first_available", _corrupting(grab_dark)
    )
    rows = _tick_rows(BreakFirstAvailableScheduler(cache=None))
    rows[1] = rows[1]._replace(available=[False] + [True] * 5)
    got = schedule_tick(SCHEME, FixedPriorityPolicy(), rows)
    assert isinstance(got[1], ShardDownError)
    assert "occupied" in str(got[1].__cause__)
    assert not isinstance(got[0], ShardDownError)


class _RaisingBFA(BreakFirstAvailableScheduler):
    """Both paths fail on λ5: the kernel raises for the whole call and the
    per-fiber scheduler raises for the λ5 fiber only."""

    def batch_kernel(self, scheme):
        def kernel(req, avail, e, f, *, check=True):
            if req[:, 5].any():
                raise RuntimeError("kernel fault")
            return kernels.batch_break_first_available(
                req, avail, e, f, check=check
            )

        return kernel

    def schedule(self, rg):
        if rg.request_vector[5]:
            raise RuntimeError("scheduler fault")
        return super().schedule(rg)


def test_raising_kernel_reruns_rows_per_fiber():
    rows = _tick_rows(_RaisingBFA(cache=None))
    got = schedule_tick(SCHEME, FixedPriorityPolicy(), rows)
    expected = _reference(_tick_rows(BreakFirstAvailableScheduler(cache=None)))
    assert got[0] == expected[0] and got[2] == expected[2]
    assert isinstance(got[1], ShardDownError)
    assert "scheduler fault" in str(got[1].__cause__)
