"""Per-device circuit breakers: fail fast instead of queueing on a
black hole.

The classic failure mode a health-blind fleet hits is the *black-hole
device*: a crashed node fails instantly, so its queue stays empty, so
a least-loaded router keeps sending it traffic.  The breaker is the
request-path complement to heartbeat health checking (which runs on
its own cadence): after ``failure_threshold`` consecutive dispatch
failures the breaker **opens** and the router stops considering the
device; after ``open_ms`` it moves to **half-open** and admits a
bounded number of probe requests; a probe success **closes** it, a
probe failure re-opens it with the timer reset.

Every state change lands on the telemetry bus as a
``serve.fleet.breaker`` span, so a fleet trace shows exactly when each
device was taken out of and returned to rotation.
"""

from __future__ import annotations

import enum
import threading
from typing import Any, Dict, List, Tuple

from repro.telemetry.bus import BUS, SpanKind


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Read on every admission; a module constant skips the enum class's
#: attribute lookup, which costs more than the rest of a CLOSED
#: breaker's answer.
_CLOSED = BreakerState.CLOSED


class CircuitBreaker:
    """The closed/open/half-open state machine for one device.

    Thread-safe: admits/allow/record run under an instance lock so
    concurrent router workers sharing a breaker observe consistent
    transitions.  A CLOSED breaker answers admits/allow without the
    lock: they change nothing there, and reading the state is one
    atomic reference read.  The router admits a candidate with
    :meth:`admits` and takes its probe with :meth:`allow` at dispatch,
    two separate lock holds; the ``half_open_probes`` bound holds
    across them only while one thread routes through the breaker, as
    :class:`~repro.serving.fleet.router.FleetRouter` does.
    """

    def __init__(
        self,
        device: str,
        failure_threshold: int = 3,
        open_ms: float = 400.0,
        half_open_probes: int = 1,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if open_ms < 0:
            raise ValueError("open_ms must be >= 0")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.device = device
        self.failure_threshold = failure_threshold
        self.open_ms = open_ms
        self.half_open_probes = half_open_probes
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._opened_until_ms = 0.0
        self._probes_in_flight = 0
        self.transitions: List[Tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        with self._lock:
            return self._state

    def _transition(
        self, to: BreakerState, now_ms: float, cause: str
    ) -> None:
        """Move to ``to`` (caller holds the lock)."""
        if to is self._state:
            return
        frm = self._state
        self._state = to
        self.transitions.append((now_ms, frm.value, to.value))
        if BUS.active:
            BUS.emit(
                SpanKind.FLEET_BREAKER,
                self.device,
                device=self.device,
                t_ms=now_ms,
                frm=frm.value,
                to=to.value,
                cause=cause,
            )

    # ------------------------------------------------------------------
    def _elapse(self, now_ms: float) -> bool:
        """Flip an OPEN breaker whose timer has elapsed to HALF_OPEN;
        False while it is still OPEN (caller holds the lock)."""
        if self._state is BreakerState.OPEN:
            if now_ms < self._opened_until_ms:
                return False
            self._transition(
                BreakerState.HALF_OPEN, now_ms, "open-timer-elapsed"
            )
            self._probes_in_flight = 0
        return True

    def admits(self, now_ms: float) -> bool:
        """Would :meth:`allow` admit a dispatch right now?

        The router's candidate filter: it flips an elapsed OPEN
        breaker to HALF_OPEN exactly as :meth:`allow` would, but takes
        no probe slot, so a candidate the policy then passes over does
        not hold the slot.
        """
        if self._state is _CLOSED:
            return True
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if not self._elapse(now_ms):
                return False
            return self._probes_in_flight < self.half_open_probes

    def allow(self, now_ms: float) -> bool:
        """May the router dispatch to this device right now?

        An OPEN breaker whose timer has elapsed flips to HALF_OPEN
        here (the router's inquiry *is* the probe opportunity); a
        HALF_OPEN breaker admits at most ``half_open_probes``
        concurrent probes, and each admission takes one.
        """
        if self._state is _CLOSED:
            return True
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if not self._elapse(now_ms):
                return False
            # HALF_OPEN: bounded probes.
            if self._probes_in_flight >= self.half_open_probes:
                return False
            self._probes_in_flight += 1
            return True

    def record_success(self, now_ms: float) -> None:
        with self._lock:
            self._failures = 0
            if self._state is BreakerState.HALF_OPEN:
                self._transition(
                    BreakerState.CLOSED, now_ms, "probe-succeeded"
                )
                self._probes_in_flight = 0

    def record_failure(self, now_ms: float) -> None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._opened_until_ms = now_ms + self.open_ms
                self._transition(
                    BreakerState.OPEN, now_ms, "probe-failed"
                )
                self._probes_in_flight = 0
                return
            self._failures += 1
            if (
                self._state is BreakerState.CLOSED
                and self._failures >= self.failure_threshold
            ):
                self._opened_until_ms = now_ms + self.open_ms
                self._transition(
                    BreakerState.OPEN, now_ms, "failure-threshold"
                )
                self._failures = 0

    def release_probe(self) -> None:
        """Give back the probe slot of a copy that neither succeeded
        nor failed: a cancelled hedge loser.  The state does not move,
        so a HALF_OPEN breaker admits its next probe."""
        if self._state is _CLOSED:
            return
        with self._lock:
            if (
                self._state is BreakerState.HALF_OPEN
                and self._probes_in_flight > 0
            ):
                self._probes_in_flight -= 1

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "device": self.device,
                "state": self._state.value,
                "transitions": [
                    {"t_ms": t, "from": f, "to": to}
                    for t, f, to in self.transitions
                ],
            }
