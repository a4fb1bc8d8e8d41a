"""The deterministic fault injector.

One :class:`FaultInjector` owns a :class:`~repro.faults.scenario
.FaultPlan`, a simulation clock, and one seeded generator per scenario
(``default_rng((plan.seed, scenario_index))``), so the same plan and
seed reproduce the identical fault sequence bit-for-bit.  Faults enter
the simulator through *hooks* the existing layers already accept — no
monkeypatching:

* :meth:`memcpy_factor` / :meth:`kernel_factor` — the ``hardware_hook``
  protocol of :func:`repro.hardware.gpu.simulate_inference` (DRAM
  degradation, memcpy stalls, kernel hangs);
* :meth:`executor_hook` — the ``layer_hook`` of
  :class:`repro.runtime.executor.GraphExecutor` (launch failures,
  transient NaN compute faults);
* :meth:`apply_thermal` — steps a :class:`repro.hardware.clocks
  .ClockDomain` down the DVFS ladder while a thermal window is active;
* :meth:`ram_stolen_mb` / :meth:`bandwidth_scale` — the ``faults``
  protocol of :class:`repro.hardware.scheduler.StreamScheduler`;
* :meth:`corrupt_artifact` — damages ``.plan`` / timing-cache files on
  disk.

State faults (thermal, DRAM degradation, OOM pressure) log engage /
release transitions; discrete faults (stalls, launch failures, hangs,
NaNs, corruption) log every firing.
"""

from __future__ import annotations

import fnmatch
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.faults.disk import CORRUPTION_MODES, corrupt_file
from repro.faults.events import (
    FaultEvent,
    FaultKind,
    FaultLog,
    KernelLaunchFault,
)
from repro.faults.scenario import FaultPlan, FaultScenario
from repro.telemetry.bus import BUS, SpanKind

#: Kernel/memcpy slowdown per DRAM-degradation severity step.
DRAM_SLOWDOWN_PER_SEVERITY = 0.20
#: Memcpy slowdown factor is ``1 + severity`` when a stall fires.
MEMCPY_STALL_PER_SEVERITY = 1.0
#: A hung kernel runs ``HANG_FACTOR_PER_SEVERITY * severity`` times
#: longer than its healthy duration.
HANG_FACTOR_PER_SEVERITY = 10.0
#: Fraction of usable RAM stolen per OOM severity step.
RAM_STEAL_PER_SEVERITY = 1.0 / 6.0
#: Fraction of output elements NaN'd per compute-fault severity step.
NAN_FRACTION_PER_SEVERITY = 0.001

#: Fault kinds whose activation is a *window* (engage/release logged
#: once per transition) rather than a discrete firing.
_STATE_KINDS = frozenset(
    {FaultKind.THERMAL_THROTTLE, FaultKind.DRAM_DEGRADATION, FaultKind.OOM}
)


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against a simulation clock."""

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan if plan is not None else FaultPlan()
        self.log = FaultLog()
        self.now = 0.0
        self._rngs = [
            np.random.default_rng((self.plan.seed, index))
            for index in range(len(self.plan.scenarios))
        ]
        self._engaged: Dict[int, bool] = {}
        #: Per-domain clock before throttling, keyed by id(domain).
        self._pinned_clock: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    def set_time(self, time_s: float) -> None:
        """Advance the simulation clock and log window transitions."""
        self.now = float(time_s)
        for index, scenario in enumerate(self.plan.scenarios):
            if scenario.kind not in _STATE_KINDS:
                continue
            active = scenario.active_at(self.now)
            was = self._engaged.get(index, False)
            if active != was:
                self._engaged[index] = active
                self.log.emit(
                    scenario.kind,
                    self.now,
                    scenario.name,
                    scenario.severity,
                    phase="engage" if active else "release",
                )

    def advance(self, dt_s: float) -> None:
        self.set_time(self.now + dt_s)

    # ------------------------------------------------------------------
    # scenario evaluation
    # ------------------------------------------------------------------
    def _active(self, kind: FaultKind) -> List[Tuple[int, FaultScenario]]:
        return [
            (i, s)
            for i, s in enumerate(self.plan.scenarios)
            if s.kind is kind and s.active_at(self.now)
        ]

    def _fires(self, index: int, scenario: FaultScenario) -> bool:
        """Per-opportunity trigger draw (no draw when probability=1)."""
        if scenario.probability >= 1.0:
            return True
        return bool(self._rngs[index].random() < scenario.probability)

    @staticmethod
    def _matches(scenario: FaultScenario, target: str) -> bool:
        return fnmatch.fnmatchcase(target, scenario.target)

    @staticmethod
    def _amp(scenario: FaultScenario, severity_default: float) -> float:
        """Scenario magnitude: explicit amplitude, else severity-derived."""
        if scenario.amplitude is not None:
            return scenario.amplitude
        return severity_default

    # ------------------------------------------------------------------
    # hardware_hook protocol (repro.hardware.gpu.simulate_inference)
    # ------------------------------------------------------------------
    # Both factors depend on the simulation clock ``self.now`` only, not
    # on an event's position inside the timeline, so the simulator can
    # ask for every event's factor before it lays out the start times.
    def memcpy_factor(self, label: str) -> float:
        factor = 1.0
        for _, scenario in self._active(FaultKind.DRAM_DEGRADATION):
            factor *= self._amp(
                scenario,
                1.0 + DRAM_SLOWDOWN_PER_SEVERITY * scenario.severity,
            )
        for index, scenario in self._active(FaultKind.MEMCPY_STALL):
            if self._fires(index, scenario):
                stall = self._amp(
                    scenario,
                    1.0 + MEMCPY_STALL_PER_SEVERITY * scenario.severity,
                )
                factor *= stall
                self.log.emit(
                    scenario.kind,
                    self.now,
                    scenario.name,
                    scenario.severity,
                    target=label,
                    factor=stall,
                )
        return factor

    def kernel_factor(self, layer_name: str, kernel_name: str) -> float:
        factor = 1.0
        for _, scenario in self._active(FaultKind.DRAM_DEGRADATION):
            factor *= self._amp(
                scenario,
                1.0 + DRAM_SLOWDOWN_PER_SEVERITY * scenario.severity,
            )
        for index, scenario in self._active(FaultKind.KERNEL_HANG):
            if self._matches(scenario, layer_name) and self._fires(
                index, scenario
            ):
                hang = self._amp(
                    scenario, HANG_FACTOR_PER_SEVERITY * scenario.severity
                )
                factor *= hang
                self.log.emit(
                    scenario.kind,
                    self.now,
                    scenario.name,
                    scenario.severity,
                    target=layer_name,
                    kernel=kernel_name,
                    factor=hang,
                )
        return factor

    # ------------------------------------------------------------------
    # layer_hook protocol (repro.runtime.executor.GraphExecutor)
    # ------------------------------------------------------------------
    def executor_hook(self) -> Callable[..., np.ndarray]:
        """A ``layer_hook`` injecting launch failures and NaN faults."""

        def hook(layer, tensor_name: str, out: np.ndarray) -> np.ndarray:
            for index, scenario in self._active(
                FaultKind.KERNEL_LAUNCH_FAIL
            ):
                if self._matches(scenario, layer.name) and self._fires(
                    index, scenario
                ):
                    self.log.emit(
                        scenario.kind,
                        self.now,
                        scenario.name,
                        scenario.severity,
                        target=layer.name,
                    )
                    raise KernelLaunchFault(
                        f"injected launch failure at layer {layer.name!r}"
                    )
            for index, scenario in self._active(FaultKind.COMPUTE_NAN):
                if self._matches(scenario, layer.name) and self._fires(
                    index, scenario
                ):
                    rng = self._rngs[index]
                    fraction = self._amp(
                        scenario,
                        NAN_FRACTION_PER_SEVERITY * scenario.severity,
                    )
                    count = max(1, int(out.size * fraction))
                    out = out.copy()
                    flat = out.reshape(-1)
                    positions = rng.integers(0, flat.size, size=count)
                    flat[positions] = np.nan
                    self.log.emit(
                        scenario.kind,
                        self.now,
                        scenario.name,
                        scenario.severity,
                        target=layer.name,
                        tensor=tensor_name,
                        elements=count,
                    )
            return out

        return hook

    # ------------------------------------------------------------------
    # thermal (repro.hardware.clocks.ClockDomain)
    # ------------------------------------------------------------------
    def apply_thermal(self, domain) -> float:
        """Throttle ``domain`` per the active thermal scenarios.

        Steps the domain down the DVFS ladder by the sum of active
        severities, and restores the pinned clock when every thermal
        window has passed.  Returns the domain's resulting clock.
        """
        key = id(domain)
        pinned = self._pinned_clock.setdefault(key, domain.gpu_clock_mhz)
        steps = int(
            sum(
                self._amp(s, s.severity)
                for _, s in self._active(FaultKind.THERMAL_THROTTLE)
            )
        )
        before = domain.gpu_clock_mhz
        if steps:
            domain.set_gpu_clock(pinned)
            target = domain.step_down(steps)
        else:
            domain.set_gpu_clock(pinned)
            target = pinned
        if target != before:
            self.log.emit(
                FaultKind.THERMAL_THROTTLE,
                self.now,
                "thermal_throttle",
                max(1, min(5, steps)) if steps else 1,
                phase="step" if steps else "restore",
                from_mhz=before,
                to_mhz=target,
            )
            if BUS.active:
                BUS.emit(
                    SpanKind.CLOCK,
                    "gpu",
                    clock_mhz=target,
                    from_mhz=before,
                    cause="thermal" if steps else "restore",
                )
        return target

    # ------------------------------------------------------------------
    # faults protocol (repro.hardware.scheduler.StreamScheduler)
    # ------------------------------------------------------------------
    def ram_stolen_mb(self, device) -> float:
        """MB of usable board RAM consumed by active OOM pressure."""
        from repro.hardware.scheduler import USABLE_RAM_FRACTION

        usable = device.ram_gb * 1024.0 * USABLE_RAM_FRACTION
        fraction = sum(
            self._amp(s, RAM_STEAL_PER_SEVERITY * s.severity)
            for _, s in self._active(FaultKind.OOM)
        )
        return usable * min(1.0, fraction)

    def bandwidth_scale(self) -> float:
        """Multiplier on effective DRAM bandwidth (<= 1)."""
        scale = 1.0
        for _, scenario in self._active(FaultKind.DRAM_DEGRADATION):
            scale /= self._amp(
                scenario,
                1.0 + DRAM_SLOWDOWN_PER_SEVERITY * scenario.severity,
            )
        return scale

    # ------------------------------------------------------------------
    # disk artifacts
    # ------------------------------------------------------------------
    def corrupt_artifact(self, path) -> Optional[FaultEvent]:
        """Damage ``path`` if a matching corruption scenario fires."""
        from pathlib import Path

        path = Path(path)
        kind = (
            FaultKind.CACHE_CORRUPTION
            if "cache" in path.name
            else FaultKind.PLAN_CORRUPTION
        )
        for index, scenario in self._active(kind):
            if not self._matches(scenario, path.name):
                continue
            if not self._fires(index, scenario):
                continue
            rng = self._rngs[index]
            mode = CORRUPTION_MODES[
                int(rng.integers(0, len(CORRUPTION_MODES)))
            ]
            damaged = corrupt_file(
                path, rng, mode=mode, severity=scenario.severity
            )
            return self.log.emit(
                kind,
                self.now,
                scenario.name,
                scenario.severity,
                target=path.name,
                mode=mode,
                bytes=damaged,
            )
        return None

    # ------------------------------------------------------------------
    def emit(self, kind: FaultKind, severity: int = 1, **details) -> FaultEvent:
        """Record an external observation (e.g. an OOM kill decided by
        the serving layer) into this injector's log."""
        return self.log.emit(
            kind, self.now, "observed", severity, **details
        )
