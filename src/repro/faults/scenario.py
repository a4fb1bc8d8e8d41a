"""Composable fault scenarios and scenario plans.

A :class:`FaultScenario` declares *one* fault family with a trigger
window (start + duration in simulation seconds), a per-opportunity
trigger probability, a severity, and an optional target pattern (layer
glob for kernel faults, path glob for disk faults).  A
:class:`FaultPlan` bundles scenarios with the seed that makes the whole
run reproducible, and round-trips through JSON so scenarios are
shippable artifacts (see README "Fault injection & graceful
degradation" for the file format).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.faults.events import FaultKind

#: Severity is a 1..5 scale, like the corruption benchmark's levels.
MAX_SEVERITY = 5


@dataclass(frozen=True)
class FaultScenario:
    """Declaration of one fault family's behaviour over a run.

    Severity semantics per kind:

    * ``thermal_throttle`` — DVFS ladder steps dropped while active;
    * ``dram_degradation`` — kernel+memcpy slowdown ``1 + 0.2*sev``;
    * ``memcpy_stall`` — memcpy slowdown ``1 + sev`` per stalled copy;
    * ``kernel_hang`` — hung kernel runs ``10*sev`` times longer;
    * ``kernel_launch_fail`` / ``compute_nan`` — amplitude is the
      per-opportunity ``probability``; severity scales blast radius;
    * ``oom`` — steals ``sev/6`` of the board's usable RAM;
    * ``plan_corruption`` / ``cache_corruption`` — bytes damaged scale
      with severity.

    ``amplitude`` overrides the severity-derived magnitude with an
    exact value (kind-specific: ladder steps for thermal, stolen RAM
    fraction for OOM, slowdown factor for DRAM/stall/hang, NaN element
    fraction for compute faults); severity remains the coarse 1..5
    label carried on emitted events.
    """

    kind: FaultKind
    start_s: float = 0.0
    duration_s: float = math.inf
    probability: float = 1.0
    severity: int = 1
    target: str = "*"
    name: str = ""
    amplitude: Optional[float] = None

    def __post_init__(self) -> None:
        if not 1 <= self.severity <= MAX_SEVERITY:
            raise ValueError(
                f"severity must be in 1..{MAX_SEVERITY}, got {self.severity}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if not math.isfinite(self.start_s) or self.start_s < 0:
            raise ValueError(
                f"start_s must be finite and non-negative, "
                f"got {self.start_s}"
            )
        # inf is allowed: it means an open-ended window.
        if math.isnan(self.duration_s) or self.duration_s < 0:
            raise ValueError(
                f"duration_s must be non-negative, got {self.duration_s}"
            )
        if self.amplitude is not None and not math.isfinite(self.amplitude):
            raise ValueError(
                f"amplitude must be finite, got {self.amplitude}"
            )
        if not self.name:
            object.__setattr__(self, "name", self.kind.value)

    # ------------------------------------------------------------------
    def active_at(self, time_s: float) -> bool:
        return self.start_s <= time_s < self.start_s + self.duration_s

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "kind": self.kind.value,
            "start_s": self.start_s,
            "probability": self.probability,
            "severity": self.severity,
            "target": self.target,
            "name": self.name,
        }
        if math.isfinite(self.duration_s):
            doc["duration_s"] = self.duration_s
        if self.amplitude is not None:
            doc["amplitude"] = self.amplitude
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "FaultScenario":
        try:
            kind = FaultKind(doc["kind"])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad fault scenario kind: {exc}") from None
        return cls(
            kind=kind,
            start_s=float(doc.get("start_s", 0.0)),
            duration_s=float(doc.get("duration_s", math.inf)),
            probability=float(doc.get("probability", 1.0)),
            severity=int(doc.get("severity", 1)),
            target=str(doc.get("target", "*")),
            name=str(doc.get("name", "")),
            amplitude=(
                float(doc["amplitude"]) if "amplitude" in doc else None
            ),
        )


@dataclass
class FaultPlan:
    """A seeded bundle of scenarios — one reproducible fault campaign."""

    scenarios: List[FaultScenario] = field(default_factory=list)
    seed: int = 0
    name: str = "plan"

    def __post_init__(self) -> None:
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError(
                f"scenario names must be unique, got {names}; set "
                "explicit 'name' fields to disambiguate repeated kinds"
            )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.scenarios)

    def of_kind(self, kind: FaultKind) -> List[FaultScenario]:
        return [s for s in self.scenarios if s.kind is kind]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(doc, dict) or "scenarios" not in doc:
            raise ValueError(
                "fault plan document must be an object with a "
                "'scenarios' array"
            )
        return cls(
            scenarios=[
                FaultScenario.from_dict(s) for s in doc["scenarios"]
            ],
            seed=int(doc.get("seed", 0)),
            name=str(doc.get("name", "plan")),
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(
                f"cannot read fault plan {path}: {exc}"
            ) from None
        return cls.from_dict(doc)


# ----------------------------------------------------------------------
# Canned plans: the named campaigns `trtsim faults --scenario` accepts.
# ----------------------------------------------------------------------
def _plan(name: str, seed: int, scenarios: Sequence[FaultScenario]) -> FaultPlan:
    return FaultPlan(scenarios=list(scenarios), seed=seed, name=name)


def thermal_plan(seed: int = 0, severity: int = 4) -> FaultPlan:
    """Sustained thermal throttle starting mid-run (paper DVFS study)."""
    return _plan("thermal", seed, [
        FaultScenario(
            kind=FaultKind.THERMAL_THROTTLE,
            start_s=0.3, duration_s=1.2, severity=severity,
        ),
    ])


def oom_plan(seed: int = 0, severity: int = 4) -> FaultPlan:
    """A RAM-pressure wave (Eq. 1 / stream-count exhaustion)."""
    return _plan("oom", seed, [
        FaultScenario(
            kind=FaultKind.OOM, start_s=0.4, duration_s=0.9,
            severity=severity,
        ),
    ])


def thermal_oom_plan(seed: int = 0) -> FaultPlan:
    """Combined throttle + RAM pressure — the acceptance scenario.

    Amplitudes are deliberately brutal: the thermal window pins the
    GPU to the DVFS ladder floor, and the RAM wave leaves room for
    only a stream or two of a small engine — the regime where
    admission control and the fallback ladder visibly pay off.
    """
    return _plan("thermal_oom", seed, [
        FaultScenario(
            kind=FaultKind.THERMAL_THROTTLE,
            start_s=0.2, duration_s=1.8, severity=5, amplitude=12,
        ),
        FaultScenario(
            kind=FaultKind.OOM, start_s=0.6, duration_s=0.6,
            severity=5, amplitude=0.99,
        ),
    ])


def flaky_kernels_plan(seed: int = 0, probability: float = 0.08) -> FaultPlan:
    """Transient launch failures plus occasional hangs."""
    return _plan("flaky_kernels", seed, [
        FaultScenario(
            kind=FaultKind.KERNEL_LAUNCH_FAIL, probability=probability,
            severity=2,
        ),
        FaultScenario(
            kind=FaultKind.KERNEL_HANG, probability=probability / 4,
            severity=3,
        ),
    ])


def memcpy_stall_plan(seed: int = 0, severity: int = 3) -> FaultPlan:
    """DRAM degradation with intermittent memcpy stalls (Table X path)."""
    return _plan("memcpy_stall", seed, [
        FaultScenario(
            kind=FaultKind.DRAM_DEGRADATION, start_s=0.2,
            duration_s=1.5, severity=severity,
        ),
        FaultScenario(
            kind=FaultKind.MEMCPY_STALL, probability=0.3,
            severity=severity,
        ),
    ])


def nan_storm_plan(seed: int = 0, probability: float = 0.05) -> FaultPlan:
    """Transient NaN-producing compute faults."""
    return _plan("nan_storm", seed, [
        FaultScenario(
            kind=FaultKind.COMPUTE_NAN, probability=probability, severity=2,
        ),
    ])


def zero_fault_plan(seed: int = 0) -> FaultPlan:
    """No scenarios at all — the supervised pass-through baseline."""
    return _plan("none", seed, [])


#: Registry used by ``trtsim faults --scenario NAME``.
CANNED_PLANS = {
    "thermal": thermal_plan,
    "oom": oom_plan,
    "thermal_oom": thermal_oom_plan,
    "flaky_kernels": flaky_kernels_plan,
    "memcpy_stall": memcpy_stall_plan,
    "nan_storm": nan_storm_plan,
    "none": zero_fault_plan,
}


def canned_plan(name: str, seed: int = 0) -> FaultPlan:
    try:
        factory = CANNED_PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown canned fault plan {name!r}; "
            f"available: {', '.join(sorted(CANNED_PLANS))}"
        ) from None
    return factory(seed=seed)


# ----------------------------------------------------------------------
# Fleet campaigns: device-level scenarios for `trtsim fleet`.
#
# The same FaultScenario/FaultPlan machinery carries them — ``target``
# is a *device-name* glob and the window is the device's outage — but
# they are evaluated by :mod:`repro.serving.fleet.faults`, not the
# single-node injector, so they live in their own registry.
# ----------------------------------------------------------------------
def fleet_chaos_plan(seed: int = 0) -> FaultPlan:
    """The acceptance scenario: one crash + one partition over a fleet.

    ``dev1`` crashes mid-traffic and reboots when the window closes;
    ``dev2`` is partitioned from the router for most of the run.  The
    windows deliberately overlap so a health-blind router faces two
    black holes at once.
    """
    return _plan("fleet_chaos", seed, [
        FaultScenario(
            kind=FaultKind.DEVICE_CRASH, start_s=1.0, duration_s=2.5,
            severity=4, target="dev1",
        ),
        FaultScenario(
            kind=FaultKind.NETWORK_PARTITION, start_s=1.5,
            duration_s=3.0, severity=3, target="dev2",
        ),
    ])


def fleet_cold_reboot_plan(seed: int = 0) -> FaultPlan:
    """A reboot that comes back with a *cold* engine store: the
    restored device pays full rebuild time unless warm failover
    restores its ladder from the shared store."""
    return _plan("fleet_cold_reboot", seed, [
        FaultScenario(
            kind=FaultKind.DEVICE_REBOOT, start_s=1.0, duration_s=1.0,
            severity=3, target="dev0",
        ),
    ])


def fleet_brownout_plan(seed: int = 0, severity: int = 4) -> FaultPlan:
    """A sustained thermal brownout pinning one device's service times
    high for most of the run (the Jetson concurrency paper's
    contention regime, amplified to a whole node)."""
    return _plan("fleet_brownout", seed, [
        FaultScenario(
            kind=FaultKind.THERMAL_BROWNOUT, start_s=0.8,
            duration_s=3.0, severity=severity, target="dev*",
            probability=0.5,
        ),
    ])


def fleet_zero_fault_plan(seed: int = 0) -> FaultPlan:
    """No device faults — the fleet's pass-through baseline."""
    return _plan("fleet_none", seed, [])


#: Registry used by ``trtsim fleet --scenario NAME``.
FLEET_PLANS = {
    "fleet_chaos": fleet_chaos_plan,
    "fleet_cold_reboot": fleet_cold_reboot_plan,
    "fleet_brownout": fleet_brownout_plan,
    "fleet_none": fleet_zero_fault_plan,
}


def canned_fleet_plan(name: str, seed: int = 0) -> FaultPlan:
    try:
        factory = FLEET_PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown canned fleet plan {name!r}; "
            f"available: {', '.join(sorted(FLEET_PLANS))}"
        ) from None
    return factory(seed=seed)
