"""Scheduler interface and schedule validation.

A *scheduler* resolves the output contention of a single output fiber for a
single time slot: given a request graph it decides which requests are granted
and which output wavelength channel each grant uses.  Every scheduler in this
package validates its own output before returning it, so an algorithmic
defect surfaces as a :class:`~repro.errors.ScheduleError` rather than a
silently wrong simulation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.errors import ScheduleError
from repro.graphs.request_graph import RequestGraph
from repro.types import Grant, ScheduleResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.graphs.conversion import ConversionScheme

__all__ = ["BatchKernel", "Scheduler", "validate_schedule", "make_result"]

#: A batch kernel: ``(request_matrix, available, e, f, *, check)`` →
#: ``(M, k)`` assign matrix (:func:`repro.core.kernels.batch_first_available`
#: is the reference signature).
BatchKernel = Callable[..., "np.ndarray"]


def validate_schedule(rg: RequestGraph, grants: Iterable[Grant]) -> None:
    """Raise :class:`ScheduleError` unless ``grants`` is a feasible schedule.

    Feasible means: each grant's channel is distinct and available, each
    grant respects the conversion adjacency, and no wavelength is granted
    more times than it was requested.
    """
    scheme = rg.scheme
    used_channels: set[int] = set()
    granted_per_wavelength = [0] * rg.k
    for g in grants:
        if not 0 <= g.wavelength < rg.k:
            raise ScheduleError(f"grant wavelength {g.wavelength} outside [0, {rg.k})")
        if not 0 <= g.channel < rg.k:
            raise ScheduleError(f"grant channel {g.channel} outside [0, {rg.k})")
        if g.channel in used_channels:
            raise ScheduleError(f"channel {g.channel} assigned twice")
        used_channels.add(g.channel)
        if not rg.available[g.channel]:
            raise ScheduleError(
                f"channel {g.channel} is occupied (unavailable)"
            )
        if not scheme.can_convert(g.wavelength, g.channel):
            raise ScheduleError(
                f"λ{g.wavelength} cannot be converted to channel {g.channel} "
                f"(outside its conversion window) under {scheme!r}"
            )
        granted_per_wavelength[g.wavelength] += 1
    for w, (granted, requested) in enumerate(
        zip(granted_per_wavelength, rg.request_vector)
    ):
        if granted > requested:
            raise ScheduleError(
                f"λ{w}: granted {granted} requests but only {requested} arrived"
            )


def make_result(
    rg: RequestGraph,
    grants: Iterable[Grant],
    stats: Mapping[str, int] | None = None,
) -> ScheduleResult:
    """Validate ``grants`` against ``rg`` and wrap them in a
    :class:`ScheduleResult`."""
    grants = tuple(grants)
    validate_schedule(rg, grants)
    return ScheduleResult(
        grants=grants,
        request_vector=rg.request_vector,
        available=rg.available,
        stats=dict(stats or {}),
    )


class Scheduler(ABC):
    """Contention-resolution algorithm for one output fiber.

    Subclasses implement :meth:`schedule`; :attr:`name` identifies the
    algorithm in experiment reports.  Schedulers are stateless with respect
    to slots (grant fairness across slots is handled by the grant policies in
    :mod:`repro.core.policies`), so one instance may serve many output fibers
    concurrently.
    """

    #: Short identifier used in experiment tables.
    name: str = "scheduler"

    @abstractmethod
    def schedule(self, rg: RequestGraph) -> ScheduleResult:
        """Resolve contention for the requests in ``rg``.

        Returns a validated :class:`ScheduleResult`.  Raises
        :class:`~repro.errors.InvalidParameterError` if the scheduler does
        not support ``rg.scheme`` (e.g. the First Available scheduler on a
        circular scheme).
        """

    def batch_kernel(self, scheme: "ConversionScheme") -> BatchKernel | None:
        """The batch kernel computing this scheduler's grants on ``scheme``
        for many output fibers in one call, or ``None``.

        A scheduler that returns a kernel promises that, row by row, the
        kernel grants exactly what :meth:`schedule` grants (the service
        tick then skips :meth:`schedule` for single-class rows; see
        :func:`repro.core.distributed.schedule_tick`).  Default: ``None``
        — every fiber goes through :meth:`schedule`.  A subclass that
        changes :meth:`schedule` must override this too.
        """
        return None

    def supports(self, rg: RequestGraph) -> bool:
        """Whether this scheduler accepts ``rg``'s conversion scheme."""
        try:
            self._check_scheme(rg)
        except Exception:
            return False
        return True

    def _check_scheme(self, rg: RequestGraph) -> None:
        """Hook: raise if ``rg.scheme`` is unsupported.  Default: accept."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
