"""Fleet-wide degradation ladder governed by SLO attainment.

When the fleet is losing the SLO fight — devices down, brownouts, a
burst it cannot absorb — it is better to serve *most* requests well
than all requests badly.  The governor watches deadline attainment
over a sliding window of outcomes and walks a ladder:

======  ==============================================================
level   effect
======  ==============================================================
0       normal serving
1       **shed** priority-0 (lowest) requests at the front door
2       shed + **drop precision**: every device serves one ladder
        level down (the supervisor's fallback engines — paper Finding
        4's cheaper precisions — traded for headroom)
3       **brownout mode**: shed priorities 0 and 1, serve two ladder
        levels down; the fleet keeps only its premium traffic alive
======  ==============================================================

Escalation needs attainment below ``enter_below`` over a full window;
recovery needs ``exit_above`` — the hysteresis gap prevents flapping.
Every move is a ``serve.fleet.degrade`` span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serving.fleet.device import FleetDevice
from repro.serving.fleet.router import DispatchOutcome
from repro.serving.fleet.traffic import FleetRequest
from repro.telemetry.bus import BUS, SpanKind

#: Ladder level -> highest priority shed at the front door (-1: none).
_SHED_FLOOR = {0: -1, 1: 0, 2: 0, 3: 1}
#: Ladder level -> device precision bias (ladder levels dropped).
_PRECISION_BIAS = {0: 0, 1: 0, 2: 1, 3: 2}


@dataclass
class DegradationConfig:
    """Governor policy knobs."""

    window: int = 50
    enter_below: float = 0.85
    exit_above: float = 0.95
    max_level: int = 3
    #: Minimum simulated time between ladder moves: the governor must
    #: watch a move's effect before moving again, or it flaps between
    #: all-shed (window attainment 1.0) and no-shed (attainment ~0).
    min_dwell_ms: float = 250.0
    enabled: bool = True

    def __post_init__(self) -> None:
        top = max(_PRECISION_BIAS)
        if not 0 <= self.max_level <= top:
            raise ValueError(
                f"max_level must be in 0..{top}, got {self.max_level}"
            )


class DegradationGovernor:
    """Walks the fleet degradation ladder from observed attainment."""

    def __init__(
        self,
        devices: Sequence[FleetDevice],
        config: Optional[DegradationConfig] = None,
    ):
        self.devices = list(devices)
        self.config = config or DegradationConfig()
        if self.config.window < 1:
            raise ValueError("window must be >= 1")
        self.level = 0
        self._window_hits = 0
        self._window_seen = 0
        self._last_move_ms = float("-inf")
        self.moves: List[Tuple[float, int, int, float]] = []

    # ------------------------------------------------------------------
    def should_shed(self, request: FleetRequest) -> bool:
        """Front-door verdict for ``request`` at the current level."""
        if not self.config.enabled:
            return False
        return request.priority <= _SHED_FLOOR[
            min(self.level, self.config.max_level)
        ]

    def observe(self, outcome: DispatchOutcome, now_ms: float) -> None:
        """Fold one terminal outcome into the sliding window.

        Shed requests do not count against attainment — the ladder
        already claimed them; counting them would latch the fleet at
        the top level forever.
        """
        if not self.config.enabled or outcome.shed:
            return
        self._window_seen += 1
        if outcome.deadline_met:
            self._window_hits += 1
        if self._window_seen < self.config.window:
            return
        attainment = self._window_hits / self._window_seen
        self._window_hits = 0
        self._window_seen = 0
        if now_ms - self._last_move_ms < self.config.min_dwell_ms:
            return
        if attainment < self.config.enter_below:
            self._move(min(self.level + 1, self.config.max_level),
                       now_ms, attainment)
        elif attainment > self.config.exit_above:
            self._move(max(self.level - 1, 0), now_ms, attainment)

    def _move(self, to: int, now_ms: float, attainment: float) -> None:
        if to == self.level:
            return
        frm = self.level
        self.level = to
        self._last_move_ms = now_ms
        bias = _PRECISION_BIAS[to]
        for device in self.devices:
            device.level_bias = bias
        self.moves.append((now_ms, frm, to, attainment))
        if BUS.active:
            BUS.emit(
                SpanKind.FLEET_DEGRADE,
                f"level{to}",
                t_ms=now_ms,
                frm=frm,
                level=to,
                attainment=attainment,
                shed_floor=_SHED_FLOOR[to],
                precision_bias=bias,
            )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "level": self.level,
            "moves": [
                {
                    "t_ms": t,
                    "from": frm,
                    "to": to,
                    "attainment": attainment,
                }
                for t, frm, to, attainment in self.moves
            ],
        }
