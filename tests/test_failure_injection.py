"""Failure-injection tests: defective schedulers must be caught, not
propagated into wrong simulation results."""

import numpy as np
import pytest

from repro.core.base import Scheduler, validate_schedule
from repro.core.distributed import DistributedScheduler, SlotRequest
from repro.errors import ScheduleError, SimulationError
from repro.faults import ChannelOutage, FaultPlan
from repro.graphs.conversion import CircularConversion
from repro.graphs.request_graph import RequestGraph
from repro.sim.engine import SlottedSimulator
from repro.sim.fast import FastPacketSimulator
from repro.sim.traffic import BernoulliTraffic
from repro.types import Grant, ScheduleResult


class _EvilScheduler(Scheduler):
    """Produces a hand-crafted (possibly infeasible) result, bypassing
    make_result's validation — simulating an implementation defect."""

    name = "evil"

    def __init__(self, grants_fn):
        self._grants_fn = grants_fn

    def schedule(self, rg: RequestGraph) -> ScheduleResult:
        return ScheduleResult(
            grants=tuple(self._grants_fn(rg)),
            request_vector=rg.request_vector,
            available=rg.available,
        )


@pytest.fixture
def scheme():
    return CircularConversion(6, 1, 1)


@pytest.fixture
def rg(scheme):
    return RequestGraph(scheme, [2, 1, 0, 1, 1, 2])


class TestValidateCatchesEachDefect:
    def test_duplicate_channel(self, rg):
        with pytest.raises(ScheduleError, match="twice"):
            validate_schedule(rg, [Grant(0, 0), Grant(1, 0)])

    def test_out_of_window_conversion(self, rg):
        with pytest.raises(ScheduleError, match="converted"):
            validate_schedule(rg, [Grant(0, 2)])

    def test_phantom_request(self, rg):
        with pytest.raises(ScheduleError, match="arrived"):
            validate_schedule(rg, [Grant(2, 2)])  # λ2 has no requests

    def test_occupied_channel(self, scheme):
        rg = RequestGraph(scheme, [1] * 6, [False] * 6)
        with pytest.raises(ScheduleError, match="occupied"):
            validate_schedule(rg, [Grant(0, 0)])


class TestEngineRejectsEvilSchedulers:
    def _sim(self, scheme, grants_fn, seed=0):
        return SlottedSimulator(
            2,
            scheme,
            _EvilScheduler(grants_fn),
            BernoulliTraffic(2, scheme.k, 1.0),
            seed=seed,
        )

    def test_double_assignment_detected_by_datapath_checks(self, scheme):
        # Grants the same channel to two wavelengths.
        def grants_fn(rg):
            out = []
            wavelengths = [
                w for w, c in enumerate(rg.request_vector) if c > 0
            ]
            for w in wavelengths[:2]:
                out.append(Grant(w, rg.scheme.adjacency(w)[0]))
            return out

        sim = self._sim(scheme, grants_fn)
        # λ0's and λ1's first adjacent channels may coincide (λ5/λ0 windows);
        # whichever way the draw goes, the engine either runs or raises —
        # but it must never silently mis-count.  Force the collision:
        def colliding(rg):
            ws = [w for w, c in enumerate(rg.request_vector) if c > 0]
            if len(ws) < 2:
                return []
            b = rg.scheme.adjacency(ws[0])[-1]
            return [Grant(ws[0], b), Grant(ws[1], b)]

        sim = self._sim(scheme, colliding, seed=1)
        with pytest.raises((SimulationError, ScheduleError, Exception)):
            for _ in range(5):
                sim.step()

    def test_grant_without_request_detected(self, scheme):
        def grants_fn(rg):
            empty = [w for w, c in enumerate(rg.request_vector) if c == 0]
            if not empty:
                return []
            w = empty[0]
            return [Grant(w, rg.scheme.adjacency(w)[0])]

        sim = self._sim(scheme, grants_fn, seed=2)
        with pytest.raises(Exception):
            for _ in range(20):
                sim.step()


class TestDistributedRejectsEvilSchedulers:
    def test_overgrant_detected(self, scheme):
        # Grants the same wavelength more times than requested.
        def grants_fn(rg):
            ws = [w for w, c in enumerate(rg.request_vector) if c > 0]
            if not ws:
                return []
            w = ws[0]
            adj = rg.scheme.adjacency(w)
            return [
                Grant(w, b) for b in adj[: rg.request_vector[w] + 1]
            ]

        ds = DistributedScheduler(2, scheme, _EvilScheduler(grants_fn))
        with pytest.raises(Exception):
            ds.schedule_slot([SlotRequest(0, 0, 0)])


class _EvilFastSimulator(FastPacketSimulator):
    """A fast engine whose batch kernel has an injected defect.

    The kernel's row encoding (``row[b] = wavelength or -1``) cannot even
    express the duplicate-channel defect, so the fast-engine parity of the
    _EvilScheduler tests covers the remaining defect classes: grants on
    masked/dark (unavailable) channels, grants outside the conversion
    window, per-wavelength overgrants and values that are no wavelength at
    all — each must die in the service tick's array check
    (``repro.core.distributed._check_assign``) as a ``SimulationError``,
    never flow into the metrics.
    """

    def __init__(self, *args, defect, **kwargs):
        # cache off: validation runs on every row, and the defective rows
        # must never be published to the shared process-wide cache.
        kwargs.setdefault("cache", False)
        super().__init__(*args, **kwargs)
        self._defect = defect

    def _schedule_matrix(self, req, avail):
        assign = super()._schedule_matrix(req, avail)
        return self._defect(assign, req, avail)


class TestFastEngineRejectsEvilKernels:
    def _sim(self, defect, faults=None):
        scheme = CircularConversion(6, 1, 1)
        return _EvilFastSimulator(
            2,
            scheme,
            BernoulliTraffic(2, scheme.k, 1.0),
            seed=3,
            defect=defect,
            faults=faults,
        )

    def _run_expect_raise(self, sim, match):
        with pytest.raises(SimulationError, match=match):
            for _ in range(10):
                sim.step()

    def test_unavailable_channel_grant_detected(self):
        # Force a grant onto a channel the availability mask forbids —
        # with an injected outage, "unavailable" includes dark channels.
        def defect(assign, req, avail):
            if avail is not None:
                rows, cols = np.nonzero(~avail)
                if rows.size:
                    assign = assign.copy()
                    r, b = int(rows[0]), int(cols[0])
                    w = b  # same-wavelength grant: inside the window
                    if req[r, w] > 0:
                        assign[r, b] = w
            return assign

        plan = FaultPlan(
            outages=tuple(
                ChannelOutage(fib, w, start=0, duration=10)
                for fib in range(2)
                for w in range(3)
            )
        )
        sim = self._sim(defect, faults=plan)
        self._run_expect_raise(sim, "unavailable")

    def test_out_of_window_grant_detected(self):
        def defect(assign, req, avail):
            assign = assign.copy()
            for i in range(assign.shape[0]):
                ws = np.nonzero(req[i])[0]
                if ws.size:
                    w = int(ws[0])
                    # e = f = 1: channel w+3 (mod k) is out of reach.
                    assign[i, (w + 3) % req.shape[1]] = w
            return assign

        self._run_expect_raise(self._sim(defect), "window")

    def test_overgrant_detected(self):
        def defect(assign, req, avail):
            assign = assign.copy()
            for i in range(assign.shape[0]):
                ws = np.nonzero(req[i])[0]
                if ws.size:
                    w = int(ws[0])
                    k = req.shape[1]
                    # Grant w's whole window: one more than requested at
                    # full load is an overgrant.
                    for b in ((w - 1) % k, w, (w + 1) % k):
                        if avail is None or avail[i, b]:
                            assign[i, b] = w
            return assign

        self._run_expect_raise(self._sim(defect), "only")

    def test_out_of_range_wavelength_detected(self):
        def defect(assign, req, avail):
            assign = assign.copy()
            assign[:, 0] = req.shape[1]  # wavelength k does not exist
            return assign

        self._run_expect_raise(self._sim(defect), "outside")
