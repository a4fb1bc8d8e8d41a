"""Concurrent multi-model co-location on one simulated GPU.

The paper characterizes *single-engine* concurrency (Section IV-B,
Figs 3/4: stream counts bounded by SM capacity, Eq. 1 DRAM bandwidth,
and RAM); the Jetson concurrency paper (PAPERS.md) shows what happens
when *different* models share the GPU: interference well beyond the
additive cost, and strongly pairing-dependent.  This module reproduces
then extends that finding with an MPS/MIG-style co-location scheduler:

* **Residency** — every admitted tenant's engine lives in the warm
  :class:`~repro.engine.store.EnginePool` (weights resident, no
  per-request upload), and admission control charges *both* the
  resident engine bytes and the per-tenant activation working set
  against one usable-RAM budget — the two can no longer be budgeted
  independently and over-commit the board.
* **SM partitioning** (``mode="sm-partition"``) — each tenant owns a
  fraction of the SMs proportional to its priority weight, priced by
  the cost table at that ``sm_fraction``.  Tenants execute
  *concurrently*, so each one's bandwidth-bound time additionally
  stretches by a shared-DRAM contention factor derived from the
  aggregate Eq. 1 demand of its neighbors (see
  :func:`contention_factors`).
* **Time slicing** (``mode="time-slice"``) — tenants take
  priority-weighted turns at the *full* GPU (processor sharing): each
  runs at its isolated speed while scheduled but only receives
  ``w_i / sum(w)`` of wall time, so latency stretches by the inverse
  share.  Slices serialize DRAM access, so there is no cross-tenant
  bandwidth contention term — the structural contrast with
  SM partitioning that the interference matrix surfaces.

Per-tenant isolation metrics: *slowdown* (colocated over isolated
noiseless latency) and *attained SLO share* (fraction of seeded
jittered inferences meeting the tenant's deadline).  A single admitted
tenant gets ``sm_fraction == 1.0`` and a contention factor of exactly
``1.0``, making its timeline bit-identical to the isolated
single-model path the supervisor uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.engine import Engine, ExecutionContext
from repro.engine.store import EnginePool
from repro.hardware.scheduler import (
    USABLE_RAM_FRACTION,
    UTILIZATION_CEILING,
    StreamScheduler,
)
from repro.hardware.specs import DeviceSpec
from repro.telemetry.bus import BUS, SpanKind

#: Execution modes.
MODE_SM_PARTITION = "sm-partition"
MODE_TIME_SLICE = "time-slice"
MODES = (MODE_SM_PARTITION, MODE_TIME_SLICE)

#: DRAM interference coefficient: one byte/s of co-tenant demand per
#: byte/s of usable bandwidth stretches a tenant's bandwidth-bound
#: time by this much.  1.0 models full serialization of overlapping
#: traffic at the memory controller.
DEFAULT_KAPPA = 1.0


@dataclass(frozen=True)
class TenantSpec:
    """One co-located model: identity, priority class, and SLO."""

    name: str
    model: str
    #: Priority class: relative SM/time-slice weight *and* admission
    #: order (higher admits first when RAM runs out).
    priority: int = 1
    slo_ms: float = 50.0
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.priority < 1:
            raise ValueError(
                f"tenant {self.name!r}: priority must be >= 1"
            )
        if self.batch_size < 1:
            raise ValueError(
                f"tenant {self.name!r}: batch_size must be >= 1"
            )


@dataclass
class ColocationConfig:
    """Knobs of one co-location run."""

    mode: str = MODE_SM_PARTITION
    clock_mhz: Optional[float] = None
    #: Jittered inferences per tenant for the SLO-attainment estimate.
    frames: int = 50
    jitter: float = 0.05
    seed: int = 0
    kappa: float = DEFAULT_KAPPA
    #: RAM held back from the admission budget (allocator slack).
    headroom_mb: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")


@dataclass
class TenantReport:
    """Isolation metrics of one tenant in one co-location run."""

    name: str
    model: str
    priority: int
    admitted: bool
    reject_reason: str = ""
    sm_fraction: float = 0.0
    mem_contention: float = 1.0
    demand_gbps: float = 0.0
    isolated_ms: float = 0.0
    colocated_ms: float = 0.0
    slowdown: float = 1.0
    slo_ms: float = 0.0
    slo_attainment: float = 0.0
    resident_mb: float = 0.0
    working_set_mb: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "model": self.model,
            "priority": self.priority,
            "admitted": self.admitted,
            "reject_reason": self.reject_reason,
            "sm_fraction": self.sm_fraction,
            "mem_contention": self.mem_contention,
            "demand_gbps": self.demand_gbps,
            "isolated_ms": self.isolated_ms,
            "colocated_ms": self.colocated_ms,
            "slowdown": self.slowdown,
            "slo_ms": self.slo_ms,
            "slo_attainment": self.slo_attainment,
            "resident_mb": self.resident_mb,
            "working_set_mb": self.working_set_mb,
        }


@dataclass
class ColocationReport:
    """Outcome of one multi-tenant run on one device."""

    device_name: str
    mode: str
    clock_mhz: float
    kappa: float
    seed: int
    tenants: List[TenantReport] = field(default_factory=list)
    #: RAM accounting the admission loop enforced, for auditability:
    #: committed (resident engines + working sets) vs the usable cap.
    committed_mb: float = 0.0
    usable_mb: float = 0.0

    @property
    def admitted(self) -> List[TenantReport]:
        return [t for t in self.tenants if t.admitted]

    @property
    def rejected(self) -> List[TenantReport]:
        return [t for t in self.tenants if not t.admitted]

    @property
    def worst_slowdown(self) -> float:
        slow = [t.slowdown for t in self.admitted]
        return max(slow) if slow else 1.0

    @property
    def mean_slowdown(self) -> float:
        slow = [t.slowdown for t in self.admitted]
        return sum(slow) / len(slow) if slow else 1.0

    @property
    def mean_slo_attainment(self) -> float:
        att = [t.slo_attainment for t in self.admitted]
        return sum(att) / len(att) if att else 0.0

    def tenant(self, name: str) -> TenantReport:
        for t in self.tenants:
            if t.name == name:
                return t
        raise KeyError(f"no tenant named {name!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": "trtsim.colocation/1",
            "device": self.device_name,
            "mode": self.mode,
            "clock_mhz": self.clock_mhz,
            "kappa": self.kappa,
            "seed": self.seed,
            "committed_mb": self.committed_mb,
            "usable_mb": self.usable_mb,
            "worst_slowdown": self.worst_slowdown,
            "mean_slowdown": self.mean_slowdown,
            "mean_slo_attainment": self.mean_slo_attainment,
            "tenants": [t.to_dict() for t in self.tenants],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def contention_factors(
    demands_bps: Sequence[float],
    usable_bw_bps: float,
    kappa: float = DEFAULT_KAPPA,
) -> List[float]:
    """Shared-DRAM contention factor per tenant.

    ``demands_bps[i]`` is tenant *i*'s own Eq. 1 bandwidth demand
    (bytes/s it moves while running at its SM share).  Each tenant's
    bandwidth-bound time stretches by ``1 + kappa * (sum of the
    *other* tenants' demand) / usable_bw``: the SM partition already
    grants a proportional bandwidth share
    (the cost table scales ``bw_eff`` by ``sm_fraction``), so this term
    prices only the *cross-tenant* interference — controller
    serialization, row-buffer conflicts — beyond that proportional
    split.  With one tenant the sum is empty and the factor is exactly
    ``1.0``.
    """
    total = sum(demands_bps)
    return [
        1.0 + kappa * max(0.0, total - own) / usable_bw_bps
        for own in demands_bps
    ]


class ColocationScheduler:
    """Run N tenant models concurrently on one simulated GPU.

    ``tenants`` and ``engines`` are parallel sequences (each engine
    realizes the same-index tenant's model).  Engines are made
    resident in ``pool`` (a warm :class:`~repro.engine.store
    .EnginePool`; one is derived from the device budget when omitted).
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        engines: Sequence[Engine],
        device: Optional[DeviceSpec] = None,
        pool: Optional[EnginePool] = None,
        config: Optional[ColocationConfig] = None,
    ):
        if not tenants:
            raise ValueError("need at least one tenant")
        if len(tenants) != len(engines):
            raise ValueError(
                f"{len(tenants)} tenants but {len(engines)} engines"
            )
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.tenants = list(tenants)
        self.engines = list(engines)
        self.device = device or engines[0].device
        self.pool = pool or EnginePool(device=self.device)
        self.config = config or ColocationConfig()
        self._contexts: Dict[str, ExecutionContext] = {}

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def usable_mb(self) -> float:
        """The one RAM budget everything is charged against."""
        return (
            self.device.ram_gb * 1024.0 * USABLE_RAM_FRACTION
            - self.config.headroom_mb
        )

    def _working_set_mb(self, idx: int) -> float:
        tenant = self.tenants[idx]
        return StreamScheduler(
            self.engines[idx], self.device
        ).per_stream_memory_mb(tenant.batch_size)

    def admit(self) -> Tuple[List[int], List[Tuple[int, str]], float]:
        """Admit tenants in (priority desc, index) order.

        Each admitted tenant is charged its resident engine bytes
        *plus* its activation working set against :meth:`usable_mb` —
        one budget, no double counting with the pool — and its engine
        must also fit the pool's own (smaller) residency budget.
        Returns ``(admitted indices, [(rejected index, reason)],
        committed_mb)``.
        """
        order = sorted(
            range(len(self.tenants)),
            key=lambda i: (-self.tenants[i].priority, i),
        )
        usable = self.usable_mb()
        committed = 0.0
        admitted: List[int] = []
        rejected: List[Tuple[int, str]] = []
        for idx in order:
            engine = self.engines[idx]
            cost = engine.size_mb + self._working_set_mb(idx)
            if committed + cost > usable:
                rejected.append((
                    idx,
                    f"RAM: {committed + cost:.0f}MB would exceed "
                    f"usable {usable:.0f}MB",
                ))
                continue
            key = f"{self.tenants[idx].name}:{engine.name}"
            if not self.pool.put(key, engine):
                rejected.append((idx, "engine exceeds pool budget"))
                continue
            committed += cost
            admitted.append(idx)
        admitted.sort()
        return admitted, rejected, committed

    # ------------------------------------------------------------------
    # contention model
    # ------------------------------------------------------------------
    def _context(self, idx: int) -> ExecutionContext:
        name = self.tenants[idx].name
        if name not in self._contexts:
            self._contexts[name] = self.engines[
                idx
            ].create_execution_context(self.device)
        return self._contexts[name]

    def _usable_bw_bps(self) -> float:
        return (
            self.device.mem_bandwidth_gbps * 1e9 * UTILIZATION_CEILING
        )

    def sm_shares(self, admitted: Sequence[int]) -> Dict[int, float]:
        """Priority-proportional SM fractions over admitted tenants."""
        total = sum(self.tenants[i].priority for i in admitted)
        return {
            i: self.tenants[i].priority / total for i in admitted
        }

    # ------------------------------------------------------------------
    def run(self) -> ColocationReport:
        """Admit, partition, time, and score every tenant."""
        cfg = self.config
        clock = cfg.clock_mhz or self.device.max_gpu_clock_mhz
        admitted, rejected, committed = self.admit()
        report = ColocationReport(
            device_name=self.device.name,
            mode=cfg.mode,
            clock_mhz=clock,
            kappa=cfg.kappa,
            seed=cfg.seed,
            committed_mb=committed,
            usable_mb=self.usable_mb(),
        )
        reasons = dict(rejected)

        shares = self.sm_shares(admitted)
        weight_total = sum(self.tenants[i].priority for i in admitted)

        # Pass 1 — isolated baselines and per-tenant Eq. 1 demand at
        # the tenant's SM share (a partitioned tenant runs slower, so
        # it also *demands* less bandwidth than at full speed).
        isolated_ms: Dict[int, float] = {}
        partition_us: Dict[int, float] = {}
        demand_bps: Dict[int, float] = {}
        for idx in admitted:
            tenant = self.tenants[idx]
            ctx = self._context(idx)
            iso = ctx.time_inference(
                clock_mhz=clock,
                include_engine_upload=False,
                jitter=0.0,
                batch_size=tenant.batch_size,
            )
            isolated_ms[idx] = iso.total_ms
            if cfg.mode == MODE_SM_PARTITION:
                part = ctx.time_inference(
                    clock_mhz=clock,
                    include_engine_upload=False,
                    jitter=0.0,
                    sm_fraction=shares[idx],
                    batch_size=tenant.batch_size,
                )
                partition_us[idx] = part.total_us
            else:
                partition_us[idx] = iso.total_us
            traffic = float(
                self.engines[idx].workload_bytes(tenant.batch_size)
            )
            demand_bps[idx] = traffic / partition_us[idx] * 1e6

        # Pass 2 — cross-tenant DRAM contention.  Time slicing
        # serializes DRAM access (one tenant runs at a time), so only
        # the concurrent SM partition pays the interference term.
        if cfg.mode == MODE_SM_PARTITION:
            factors = contention_factors(
                [demand_bps[i] for i in admitted],
                self._usable_bw_bps(),
                cfg.kappa,
            )
            contention = dict(zip(admitted, factors))
        else:
            contention = {i: 1.0 for i in admitted}

        # Pass 3 — colocated noiseless latency and jittered SLO share.
        for idx in admitted:
            tenant = self.tenants[idx]
            ctx = self._context(idx)
            if cfg.mode == MODE_SM_PARTITION:
                coloc = ctx.time_inference(
                    clock_mhz=clock,
                    include_engine_upload=False,
                    jitter=0.0,
                    sm_fraction=shares[idx],
                    batch_size=tenant.batch_size,
                    mem_contention=contention[idx],
                ).total_ms
                slice_factor = 1.0
            else:
                # Weighted processor sharing: full-speed execution for
                # a w_i/sum(w) share of wall time.
                slice_factor = weight_total / tenant.priority
                coloc = isolated_ms[idx] * slice_factor
            rng = np.random.default_rng((cfg.seed, 0xC0, idx))
            hits = 0
            for _ in range(cfg.frames):
                if cfg.mode == MODE_SM_PARTITION:
                    draw = ctx.time_inference(
                        clock_mhz=clock,
                        include_engine_upload=False,
                        rng=rng,
                        jitter=cfg.jitter,
                        sm_fraction=shares[idx],
                        batch_size=tenant.batch_size,
                        mem_contention=contention[idx],
                    ).total_ms
                else:
                    draw = (
                        ctx.time_inference(
                            clock_mhz=clock,
                            include_engine_upload=False,
                            rng=rng,
                            jitter=cfg.jitter,
                            batch_size=tenant.batch_size,
                        ).total_ms
                        * slice_factor
                    )
                if draw <= tenant.slo_ms:
                    hits += 1
            report.tenants.append(
                TenantReport(
                    name=tenant.name,
                    model=tenant.model,
                    priority=tenant.priority,
                    admitted=True,
                    sm_fraction=(
                        shares[idx]
                        if cfg.mode == MODE_SM_PARTITION
                        else 1.0
                    ),
                    mem_contention=contention[idx],
                    demand_gbps=demand_bps[idx] / 1e9,
                    isolated_ms=isolated_ms[idx],
                    colocated_ms=coloc,
                    slowdown=coloc / isolated_ms[idx],
                    slo_ms=tenant.slo_ms,
                    slo_attainment=hits / cfg.frames,
                    resident_mb=self.engines[idx].size_mb,
                    working_set_mb=self._working_set_mb(idx),
                )
            )
        for idx, _reason in rejected:
            tenant = self.tenants[idx]
            report.tenants.append(
                TenantReport(
                    name=tenant.name,
                    model=tenant.model,
                    priority=tenant.priority,
                    admitted=False,
                    reject_reason=reasons[idx],
                    slo_ms=tenant.slo_ms,
                    resident_mb=self.engines[idx].size_mb,
                    working_set_mb=self._working_set_mb(idx),
                )
            )
        # Deterministic report order: the caller's tenant order.
        report.tenants.sort(
            key=lambda t: [s.name for s in self.tenants].index(t.name)
        )

        if BUS.active:
            for t in report.tenants:
                BUS.emit(
                    SpanKind.COLOC_TENANT,
                    t.name,
                    device=self.device.name,
                    model=t.model,
                    mode=cfg.mode,
                    admitted=t.admitted,
                    priority=t.priority,
                    sm_fraction=t.sm_fraction,
                    mem_contention=t.mem_contention,
                    slowdown=t.slowdown,
                    slo_attainment=t.slo_attainment,
                )
        return report
