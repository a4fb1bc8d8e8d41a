"""Heartbeat health checking with suspicion and eviction.

The router's control-plane view of device liveness.  Every
``period_ms`` the checker probes each device; the probe outcome
distinguishes the two failure domains the chaos plan injects:

* a **crashed** device answers immediately with a *refusal* (the
  TCP-RST analogue) — the checker evicts it at once with cause
  ``crash``;
* a **partitioned** device simply never answers — the probe *times
  out*, which is indistinguishable from slowness at first, so the
  checker moves it to SUSPECT after ``suspect_after`` consecutive
  timeouts and only evicts (DOWN, cause ``partition``) after
  ``evict_after``.

A healthy probe restores HEALTHY from any state (partitions heal,
reboots finish).  Every transition is a ``serve.fleet.health`` span.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Tuple

from repro.telemetry.bus import BUS, SpanKind

#: Probe outcomes, in the vocabulary of the device's `probe()`.
PROBE_OK = "ok"
PROBE_TIMEOUT = "timeout"
PROBE_REFUSED = "refused"


class HealthState(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DOWN = "down"


#: Read on every routing decision; a module constant skips the enum
#: class's attribute lookup.
_DOWN = HealthState.DOWN


class HealthChecker:
    """Periodic prober over a set of named devices.

    ``probe`` is a callable ``(device_name, now_ms) -> outcome`` so
    the checker stays decoupled from the device implementation (tests
    drive it with a dict lookup).
    """

    def __init__(
        self,
        devices: List[str],
        probe: Callable[[str, float], str],
        period_ms: float = 100.0,
        suspect_after: int = 1,
        evict_after: int = 3,
    ):
        if period_ms <= 0:
            raise ValueError("period_ms must be positive")
        if suspect_after < 1 or evict_after < suspect_after:
            raise ValueError(
                "need 1 <= suspect_after <= evict_after, got "
                f"{suspect_after}/{evict_after}"
            )
        self.devices = list(devices)
        self.probe = probe
        self.period_ms = period_ms
        self.suspect_after = suspect_after
        self.evict_after = evict_after
        self._state: Dict[str, HealthState] = {
            d: HealthState.HEALTHY for d in self.devices
        }
        self._cause: Dict[str, str] = {d: "" for d in self.devices}
        self._misses: Dict[str, int] = {d: 0 for d in self.devices}
        self._next_beat_ms = 0.0
        self.transitions: List[Tuple[float, str, str, str]] = []

    # ------------------------------------------------------------------
    def state(self, device: str) -> HealthState:
        return self._state[device]

    def cause(self, device: str) -> str:
        """Why the device is in its current non-healthy state."""
        return self._cause[device]

    def alive(self, device: str) -> bool:
        """Routable per the checker's current view (not DOWN)."""
        return self._state[device] is not _DOWN

    def healthy_count(self) -> int:
        return sum(
            1 for d in self.devices
            if self._state[d] is HealthState.HEALTHY
        )

    # ------------------------------------------------------------------
    def _set(
        self, device: str, to: HealthState, now_ms: float, cause: str
    ) -> None:
        frm = self._state[device]
        if to is frm:
            return
        self._state[device] = to
        self._cause[device] = cause if to is not HealthState.HEALTHY else ""
        self.transitions.append((now_ms, device, to.value, cause))
        if BUS.active:
            BUS.emit(
                SpanKind.FLEET_HEALTH,
                device,
                device=device,
                t_ms=now_ms,
                frm=frm.value,
                to=to.value,
                cause=cause,
                healthy=self.healthy_count(),
            )

    def _beat(self, device: str, now_ms: float) -> None:
        outcome = self.probe(device, now_ms)
        if outcome == PROBE_OK:
            self._misses[device] = 0
            self._set(device, HealthState.HEALTHY, now_ms, "probe-ok")
            return
        if outcome == PROBE_REFUSED:
            # A refusal is a *positive* signal the node is gone (the
            # process is not listening): evict immediately.
            self._misses[device] = self.evict_after
            self._set(device, HealthState.DOWN, now_ms, "crash")
            return
        # Timeout: ambiguous — escalate through suspicion.
        self._misses[device] += 1
        if self._misses[device] >= self.evict_after:
            self._set(device, HealthState.DOWN, now_ms, "partition")
        elif self._misses[device] >= self.suspect_after:
            self._set(device, HealthState.SUSPECT, now_ms, "partition")

    def tick(self, now_ms: float) -> None:
        """Run every heartbeat round due at or before ``now_ms``."""
        while self._next_beat_ms <= now_ms:
            beat_ms = self._next_beat_ms
            for device in self.devices:
                self._beat(device, beat_ms)
            self._next_beat_ms += self.period_ms

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "states": {
                d: self._state[d].value for d in self.devices
            },
            "causes": {d: self._cause[d] for d in self.devices},
            "transitions": [
                {"t_ms": t, "device": d, "to": s, "cause": c}
                for t, d, s, c in self.transitions
            ],
        }
