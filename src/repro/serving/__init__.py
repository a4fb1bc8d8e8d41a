"""Resilient inference serving on top of the simulator.

The supervisor turns injected faults (:mod:`repro.faults`) into
degraded-but-alive service: watchdog deadlines, bounded retries with
jittered exponential backoff, priority-based admission control under
RAM pressure, a model fallback ladder under thermal throttling, and
audit-gated engine rebuilds from corrupted plan files.

:mod:`repro.serving.batching` adds dynamic micro-batching: concurrent
streams' requests coalesce into batched engine executions under a
max-wait deadline and a max-batch cap, trading bounded queueing delay
for the amortized-launch/amortized-weight throughput win the batch
timing model prices.

:mod:`repro.serving.fleet` lifts the resilience story from one node to
a cluster: device failure domains, health-checked routing with
pluggable policies, per-device circuit breakers, deadline-aware
hedging, warm failover from the shared engine store, and a fleet-wide
degradation ladder.
"""

from repro.serving.batching import (
    BatchingConfig,
    BatchingQueue,
    BatchRequest,
    MicroBatch,
    coalesce,
)
from repro.serving.colocation import (
    ColocationConfig,
    ColocationReport,
    ColocationScheduler,
    TenantSpec,
)
from repro.serving.supervisor import (
    InferenceSupervisor,
    RequestRecord,
    ResilienceComparison,
    ServiceReport,
    StreamSpec,
    SupervisorConfig,
    load_or_rebuild,
    run_fault_comparison,
)

__all__ = [
    "BatchRequest",
    "BatchingConfig",
    "BatchingQueue",
    "ColocationConfig",
    "ColocationReport",
    "ColocationScheduler",
    "MicroBatch",
    "TenantSpec",
    "coalesce",
    "InferenceSupervisor",
    "RequestRecord",
    "ResilienceComparison",
    "ServiceReport",
    "StreamSpec",
    "SupervisorConfig",
    "load_or_rebuild",
    "run_fault_comparison",
]
