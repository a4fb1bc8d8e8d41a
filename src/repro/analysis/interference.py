"""Co-location interference characterization and placement advice.

Reproduce-then-extend the Jetson concurrency paper's headline finding
(PAPERS.md): co-located models interfere *pairing-dependently* — two
bandwidth-bound models stretch each other far more than a
compute-bound / bandwidth-bound pair, because the SM partition
isolates compute but DRAM is shared.  This module runs every ordered
model pair through :class:`~repro.serving.colocation
.ColocationScheduler` and distills:

* the **NxN interference matrix** — ``matrix[a][b]`` is *a*'s
  slowdown (colocated over isolated latency) when sharing the GPU
  with *b* at equal priority;
* **best/worst pairings** — unordered pairs ranked by mean mutual
  slowdown;
* a **placement advisor** — greedy bin packing of models onto fleet
  devices minimizing intra-device pairwise interference, feeding
  :func:`repro.analysis.fleet.build_fleet` device assignment and the
  per-model service-time factors of
  :meth:`~repro.serving.fleet.device.FleetDevice.set_colocation`.

Everything here is noiseless and seed-stable: the same arguments
produce a byte-identical ``trtsim.interference/1`` report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.engines import EngineFarm, device_by_name
from repro.engine.engine import Engine
from repro.hardware.cost import cost_table
from repro.hardware.gpu import sequential_sum
from repro.serving.colocation import (
    DEFAULT_KAPPA,
    MODE_SM_PARTITION,
    ColocationConfig,
    ColocationScheduler,
    TenantSpec,
)

#: Default pair probe subset: one compute-heavy classifier, one large
#: bandwidth-hungry classifier, and two detection pipelines.
DEFAULT_MATRIX_MODELS: Tuple[str, ...] = (
    "alexnet",
    "googlenet",
    "mobilenet_v1",
    "mtcnn",
)


@dataclass
class ModelProfile:
    """Standalone characterization of one model on the device."""

    name: str
    #: "compute" or "bandwidth": which Eq. 1 term dominates the
    #: engine's kernel-time sum at the probe clock.
    bound: str
    isolated_ms: float
    demand_gbps: float
    compute_us: float
    bandwidth_us: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "bound": self.bound,
            "isolated_ms": self.isolated_ms,
            "demand_gbps": self.demand_gbps,
            "compute_us": self.compute_us,
            "bandwidth_us": self.bandwidth_us,
        }


@dataclass
class InterferenceReport:
    """The ``trtsim.interference/1`` artifact."""

    device_name: str
    mode: str
    clock_mhz: float
    kappa: float
    seed: int
    models: List[ModelProfile] = field(default_factory=list)
    #: matrix[a][b]: slowdown of *a* co-located with *b*.
    matrix: Dict[str, Dict[str, float]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def model(self, name: str) -> ModelProfile:
        for p in self.models:
            if p.name == name:
                return p
        raise KeyError(f"no profile for {name!r}")

    def pair_cost(self, a: str, b: str) -> float:
        """Mean mutual slowdown of the unordered pair {a, b}."""
        return (self.matrix[a][b] + self.matrix[b][a]) / 2.0

    def pairings(self) -> List[Tuple[str, str, float]]:
        """All unordered pairs sorted best (least interference) first,
        ties broken lexicographically."""
        names = [p.name for p in self.models]
        pairs = [
            (a, b, self.pair_cost(a, b))
            for i, a in enumerate(names)
            for b in names[i + 1:]
        ]
        return sorted(pairs, key=lambda p: (p[2], p[0], p[1]))

    @property
    def best_pair(self) -> Tuple[str, str, float]:
        return self.pairings()[0]

    @property
    def worst_pair(self) -> Tuple[str, str, float]:
        return self.pairings()[-1]

    def to_dict(self) -> Dict[str, object]:
        pairings = [
            {"a": a, "b": b, "cost": cost}
            for a, b, cost in self.pairings()
        ]
        return {
            "schema": "trtsim.interference/1",
            "device": self.device_name,
            "mode": self.mode,
            "clock_mhz": self.clock_mhz,
            "kappa": self.kappa,
            "seed": self.seed,
            "models": [p.to_dict() for p in self.models],
            "matrix": self.matrix,
            "pairings": pairings,
            "best_pair": pairings[0] if pairings else None,
            "worst_pair": pairings[-1] if pairings else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def table(self) -> str:
        names = [p.name for p in self.models]
        width = max(14, max(len(n) for n in names) + 2)
        lines = [
            " " * width
            + "".join(f"{n[:width - 1]:>{width}}" for n in names)
        ]
        for a in names:
            row = f"{a:<{width}}"
            for b in names:
                row += f"{self.matrix[a][b]:>{width}.3f}"
            lines.append(row)
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _profile(
    name: str, engine: Engine, clock_mhz: float
) -> ModelProfile:
    """Compute- vs bandwidth-boundness of one engine at one clock."""
    table = cost_table(engine.bindings, engine.device)
    terms = table.kernel_terms(clock_mhz, 1.0, 1)
    kernels = ~table.transfer
    compute_us = sequential_sum(terms[1][kernels])
    bandwidth_us = sequential_sum(terms[2][kernels])
    context = engine.create_execution_context(engine.device)
    timing = context.time_inference(
        clock_mhz=clock_mhz, include_engine_upload=False, jitter=0.0
    )
    traffic = float(engine.workload_bytes(1))
    return ModelProfile(
        name=name,
        bound=(
            "bandwidth" if bandwidth_us >= compute_us else "compute"
        ),
        isolated_ms=timing.total_ms,
        demand_gbps=traffic / timing.total_us * 1e6 / 1e9,
        compute_us=compute_us,
        bandwidth_us=bandwidth_us,
    )


def interference_matrix(
    models: Sequence[str] = DEFAULT_MATRIX_MODELS,
    device_name: str = "NX",
    farm: Optional[EngineFarm] = None,
    mode: str = MODE_SM_PARTITION,
    clock_mhz: Optional[float] = None,
    seed: int = 0,
    kappa: float = DEFAULT_KAPPA,
) -> InterferenceReport:
    """Pairwise co-location probe across ``models``.

    Every ordered pair (including a model against a second copy of
    itself — the diagonal) runs as a two-tenant equal-priority
    co-location; ``matrix[a][b]`` records *a*'s slowdown.  Noiseless
    and seed-stable: same arguments, byte-identical report — engines
    build through :meth:`EngineFarm.pinned_engine` (fixed seed, like
    :func:`repro.analysis.fleet.build_fleet`) rather than the farm's
    hash-derived slot seeds, which vary across interpreter processes
    and would make separate ``trtsim colocate`` runs disagree.
    """
    if len(models) < 2:
        raise ValueError("need at least 2 models for a matrix")
    if len(set(models)) != len(models):
        raise ValueError(f"duplicate models in {models!r}")
    farm = farm or EngineFarm(pretrained=False)
    device = device_by_name(device_name)
    clock = clock_mhz or device.max_gpu_clock_mhz
    engines = {m: farm.pinned_engine(m, device_name) for m in models}

    report = InterferenceReport(
        device_name=device_name,
        mode=mode,
        clock_mhz=clock,
        kappa=kappa,
        seed=seed,
        models=[
            _profile(m, engines[m], clock) for m in models
        ],
    )
    config = ColocationConfig(
        mode=mode, clock_mhz=clock, frames=1, jitter=0.0,
        seed=seed, kappa=kappa,
    )
    for a in models:
        report.matrix[a] = {}
        for b in models:
            scheduler = ColocationScheduler(
                tenants=[
                    TenantSpec(name="a", model=a),
                    TenantSpec(name="b", model=b),
                ],
                engines=[engines[a], engines[b]],
                device=device,
                config=config,
            )
            run = scheduler.run()
            report.matrix[a][b] = run.tenant("a").slowdown
    return report


# ----------------------------------------------------------------------
# placement advisor
# ----------------------------------------------------------------------
def advise_placement(
    report: InterferenceReport,
    n_devices: int,
    models: Optional[Sequence[str]] = None,
) -> List[List[str]]:
    """Greedy bin packing of models onto ``n_devices`` GPUs.

    Models are placed most-aggressive-first (highest total inflicted
    plus suffered slowdown); each lands on the device where it adds
    the least pairwise interference, under a balanced capacity of
    ``ceil(n_models / n_devices)`` models per device.  Deterministic:
    ties break toward the emptier, lower-indexed device.
    """
    if n_devices < 1:
        raise ValueError("need at least 1 device")
    names = list(models or [p.name for p in report.models])
    capacity = math.ceil(len(names) / n_devices)

    def aggression(m: str) -> float:
        others = [n for n in names if n != m]
        inflicted = sum(report.matrix[o][m] for o in others)
        suffered = sum(report.matrix[m][o] for o in others)
        return inflicted + suffered

    placement: List[List[str]] = [[] for _ in range(n_devices)]
    for m in sorted(names, key=lambda n: (-aggression(n), n)):
        best_idx = None
        best_key: Optional[Tuple[float, int, int]] = None
        for i, residents in enumerate(placement):
            if len(residents) >= capacity:
                continue
            added = sum(report.pair_cost(m, r) for r in residents)
            key = (added, len(residents), i)
            if best_key is None or key < best_key:
                best_key = key
                best_idx = i
        if best_idx is None:  # pragma: no cover - capacity math
            raise RuntimeError("placement overflow")
        placement[best_idx].append(m)
    return [sorted(group) for group in placement]


def round_robin_placement(
    models: Sequence[str], n_devices: int
) -> List[List[str]]:
    """The naive baseline: model *j* lands on device ``j % n``."""
    placement: List[List[str]] = [[] for _ in range(n_devices)]
    for j, m in enumerate(models):
        placement[j % n_devices].append(m)
    return [sorted(group) for group in placement]


def placement_factors(
    report: InterferenceReport,
    placement: Sequence[Sequence[str]],
) -> List[Dict[str, float]]:
    """Per-device service-time factors implied by a placement.

    Interference composes approximately linearly in neighbor demand
    (the contention model is linear in aggregate bytes/s), so a
    model's factor with residents R is ``1 + sum_{r != m}
    (matrix[m][r] - 1)``.  Solo residents get exactly ``1.0``.  Feed
    each entry to :meth:`~repro.serving.fleet.device.FleetDevice
    .set_colocation`.
    """
    out: List[Dict[str, float]] = []
    for residents in placement:
        factors: Dict[str, float] = {}
        for m in residents:
            extra = sum(
                report.matrix[m][r] - 1.0
                for r in residents
                if r != m
            )
            factors[m] = 1.0 + max(0.0, extra)
        out.append(factors)
    return out
