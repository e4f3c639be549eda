"""The paper's primary contribution: fast distributed scheduling algorithms
for wavelength-convertible WDM optical interconnects."""

from repro.core.approx import BreakPolicy, SingleBreakScheduler, deficit_bound
from repro.core.base import Scheduler, make_result, validate_schedule
from repro.core.baseline import GloverScheduler, HopcroftKarpScheduler
from repro.core.break_first_available import (
    BreakFirstAvailableReferenceScheduler,
    BreakFirstAvailableScheduler,
    bfa_fast,
)
from repro.core.distributed import (
    DistributedScheduler,
    GrantedRequest,
    SlotRequest,
    SlotSchedule,
)
from repro.core.first_available import (
    FirstAvailableReferenceScheduler,
    FirstAvailableScheduler,
    first_available_fast,
)
from repro.core.full_range import FullRangeScheduler
from repro.core.kernels import (
    batch_break_first_available,
    batch_first_available,
)
from repro.core.memo import (
    ScheduleCache,
    configure_default_cache,
    get_default_cache,
    schedule_cache_key,
)
from repro.core.min_stress import MinStressScheduler, total_stress
from repro.core.priority import PrioritySchedule, PriorityScheduler
from repro.core.policies import (
    FixedPriorityPolicy,
    GrantPolicy,
    RandomPolicy,
    RoundRobinPolicy,
)

__all__ = [
    "Scheduler",
    "validate_schedule",
    "make_result",
    "FirstAvailableScheduler",
    "FirstAvailableReferenceScheduler",
    "first_available_fast",
    "BreakFirstAvailableScheduler",
    "BreakFirstAvailableReferenceScheduler",
    "bfa_fast",
    "SingleBreakScheduler",
    "BreakPolicy",
    "deficit_bound",
    "batch_first_available",
    "batch_break_first_available",
    "ScheduleCache",
    "schedule_cache_key",
    "get_default_cache",
    "configure_default_cache",
    "PriorityScheduler",
    "PrioritySchedule",
    "FullRangeScheduler",
    "HopcroftKarpScheduler",
    "GloverScheduler",
    "MinStressScheduler",
    "total_stress",
    "DistributedScheduler",
    "SlotRequest",
    "GrantedRequest",
    "SlotSchedule",
    "GrantPolicy",
    "FixedPriorityPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
]
