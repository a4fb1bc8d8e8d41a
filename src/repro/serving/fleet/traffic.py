"""Seeded fleet traffic: diurnal/bursty arrivals, mixed model demand.

The ROADMAP's north star is serving heavy traffic from millions of
users; what the fleet simulator needs from that traffic is its *shape*:
a diurnal rate curve (the intersection cameras of the paper's traffic
application see rush hours), short bursts riding on top of it, and a
model mix (different cameras run different networks).  The generator
is fully seeded — the same ``TrafficModel`` and seed produce the
byte-identical request schedule — because every fleet experiment is a
paired comparison over the *same* offered load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Tuple

import numpy as np

from repro.caching import caching_enabled, register_cache

#: Arrival slot width.  Rates are modulated per slot; arrivals inside a
#: slot spread uniformly (seeded), so the slot width only bounds how
#: fast the diurnal/burst envelope can change.
SLOT_MS = 100.0


class FleetRequest(NamedTuple):
    """One inference request offered to the fleet front door (a tuple:
    a schedule builds tens of thousands of them)."""

    rid: int
    t_ms: float
    model: str
    priority: int = 0
    deadline_ms: float = 50.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rid": self.rid,
            "t_ms": self.t_ms,
            "model": self.model,
            "priority": self.priority,
            "deadline_ms": self.deadline_ms,
        }


@dataclass
class TrafficModel:
    """Seeded arrival-schedule generator.

    Args:
        duration_s: length of the generated schedule.
        base_rps: mean request rate before modulation.
        models: model-name -> demand weight (mixed model demand).
        diurnal_amplitude: +/- fraction of ``base_rps`` swung by one
            sinusoidal "day" spanning the run (0 disables).
        burst_prob: per-slot probability that a burst starts.
        burst_mult: rate multiplier while a burst is active.
        burst_slots: burst length in slots.
        deadline_ms: per-request SLO carried on every request.
        priorities: priority -> weight (higher priority sheds last).
        seed: schedule identity.
    """

    duration_s: float = 4.0
    base_rps: float = 200.0
    models: Dict[str, float] = field(default_factory=dict)
    diurnal_amplitude: float = 0.5
    burst_prob: float = 0.05
    burst_mult: float = 3.0
    burst_slots: int = 3
    deadline_ms: float = 50.0
    priorities: Dict[int, float] = field(
        default_factory=lambda: {0: 1.0, 1: 2.0, 2: 1.0}
    )
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("duration_s", "base_rps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be finite and positive, got {value}"
                )
        if not abs(self.diurnal_amplitude) <= 1.0:
            raise ValueError(
                "diurnal_amplitude must be in [-1, 1], got "
                f"{self.diurnal_amplitude}"
            )
        if not (math.isfinite(self.burst_mult) and self.burst_mult >= 0):
            raise ValueError(
                f"burst_mult must be finite and >= 0, got {self.burst_mult}"
            )
        if not self.models:
            self.models = {"model0": 1.0}
        for name in ("models", "priorities"):
            weights = [float(w) for w in getattr(self, name).values()]
            if not all(math.isfinite(w) and w >= 0 for w in weights):
                raise ValueError(
                    f"{name} weights must be finite and >= 0, got "
                    f"{getattr(self, name)}"
                )
            if not sum(weights) > 0:
                raise ValueError(
                    f"{name} weights must have a positive sum, got "
                    f"{getattr(self, name)}"
                )

    # ------------------------------------------------------------------
    def rate_rps(self, t_s: float) -> float:
        """The diurnal rate envelope (bursts excluded) at ``t_s``."""
        phase = 2.0 * math.pi * t_s / self.duration_s
        return self.base_rps * (
            1.0 + self.diurnal_amplitude * math.sin(phase)
        )

    def _weighted(
        self, items: Dict[Any, float]
    ) -> Tuple[List[Any], np.ndarray]:
        keys = sorted(items)
        weights = np.asarray([float(items[k]) for k in keys])
        return keys, weights / weights.sum()

    # ------------------------------------------------------------------
    def _schedule_key(self) -> Tuple[Any, ...]:
        """Hashable identity of the schedule this model generates."""
        return (
            self.duration_s,
            self.base_rps,
            tuple(sorted(self.models.items())),
            self.diurnal_amplitude,
            self.burst_prob,
            self.burst_mult,
            self.burst_slots,
            self.deadline_ms,
            tuple(sorted(self.priorities.items())),
            self.seed,
        )

    def generate(self) -> List[FleetRequest]:
        """The full arrival-sorted request schedule.

        The schedule is a pure function of the model's fields plus the
        seed, so it is memoized process-wide: a paired fleet comparison
        replays the identical offered load without drawing it twice.
        Requests are frozen, so the cached tuple is shared and a fresh
        list is returned each call.
        """
        if not caching_enabled():
            return self._generate()
        key = self._schedule_key()
        hit = _SCHEDULE_CACHE.get(key)
        if hit is None:
            hit = tuple(self._generate())
            _SCHEDULE_CACHE[key] = hit
        return list(hit)

    def _generate(self) -> List[FleetRequest]:
        rng = np.random.default_rng((self.seed, 0xF1EE7))
        model_names, model_p = self._weighted(self.models)
        prio_values, prio_p = self._weighted(self.priorities)
        # Inverse-CDF sampling: one uniform + searchsorted per draw is
        # bit-identical to ``rng.choice(n, p=...)`` (same stream, same
        # cdf construction) without re-validating ``p`` every request.
        model_cdf = model_p.cumsum()
        model_cdf /= model_cdf[-1]
        prio_cdf = prio_p.cumsum()
        prio_cdf /= prio_cdf[-1]
        priorities = [int(p) for p in prio_values]
        deadline_ms = self.deadline_ms
        requests: List[FleetRequest] = []
        slots = int(math.ceil(self.duration_s * 1000.0 / SLOT_MS))
        burst_left = 0
        rid = 0
        for slot in range(slots):
            start_ms = slot * SLOT_MS
            if burst_left > 0:
                burst_left -= 1
            elif rng.random() < self.burst_prob:
                burst_left = self.burst_slots
            rate = self.rate_rps(start_ms / 1000.0)
            if burst_left > 0:
                rate *= self.burst_mult
            mean = rate * SLOT_MS / 1000.0
            count = int(rng.poisson(mean))
            offsets = np.sort(rng.uniform(0.0, SLOT_MS, size=count))
            # Each request draws its model uniform, then its priority
            # uniform: one vector draw of 2 * count doubles is the same
            # stream as 2 * count scalar draws, interleaved.
            draws = rng.random(2 * count)
            models = model_cdf.searchsorted(draws[0::2], side="right")
            prios = prio_cdf.searchsorted(draws[1::2], side="right")
            for t_ms, m, p in zip(
                (start_ms + offsets).tolist(),
                models.tolist(),
                prios.tolist(),
            ):
                requests.append(
                    FleetRequest(
                        rid, t_ms, model_names[m], priorities[p],
                        deadline_ms,
                    )
                )
                rid += 1
        return requests


#: Memoized schedules keyed by :meth:`TrafficModel._schedule_key`.
#: (Worst case under concurrent generate() calls is a duplicated draw,
#: never a mixed schedule — entries are write-once and immutable.)
_SCHEDULE_CACHE: Dict[Tuple[Any, ...], Tuple[FleetRequest, ...]] = {}

register_cache(_SCHEDULE_CACHE.clear)
