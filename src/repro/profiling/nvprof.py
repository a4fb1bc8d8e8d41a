"""nvprof-style CUDA activity profiler.

Two facts about nvprof matter to the paper's methodology and are
reproduced here:

1. **It records kernels, not arguments.** Section V-B notes "nvprof
   does not output the specific arguments in a particular CUDA kernel
   invocation" — so the trace exposes kernel names, invocation counts,
   and durations, which is exactly what :meth:`Nvprof.summary` and
   :meth:`Nvprof.gpu_trace` provide (and nothing more).
2. **It is not free.** Instrumentation inflates kernel and memcpy
   durations; the paper's Table IX repeats Table VIII's measurement
   without nvprof and finds lower absolute latencies with the same
   anomalies.  ``kernel_overhead_factor`` models that inflation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

from repro.telemetry.bus import SpanKind

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.hardware.gpu import InferenceTiming
    from repro.telemetry.bus import TelemetryEvent


@dataclass
class KernelStats:
    """Aggregated statistics for one kernel name (summary mode row)."""

    name: str
    calls: int = 0
    total_us: float = 0.0
    min_us: float = float("inf")
    max_us: float = 0.0

    @property
    def avg_us(self) -> float:
        return self.total_us / self.calls if self.calls else 0.0

    def add(self, duration_us: float) -> None:
        self.calls += 1
        self.total_us += duration_us
        self.min_us = min(self.min_us, duration_us)
        self.max_us = max(self.max_us, duration_us)


class Nvprof:
    """Profiler handle; pass to timing APIs to attach it.

    Args:
        mode: ``"summary"`` or ``"gpu-trace"`` (both record the same
            data; the mode selects the default report).
        kernel_overhead_factor: multiplicative slowdown instrumentation
            imposes on kernels (~12% is typical for nvprof on Jetson).
        memcpy_overhead_factor: same for memcpy operations.
    """

    def __init__(
        self,
        mode: str = "summary",
        kernel_overhead_factor: float = 1.12,
        memcpy_overhead_factor: float = 1.05,
    ):
        if mode not in ("summary", "gpu-trace"):
            raise ValueError(f"unknown nvprof mode {mode!r}")
        self.mode = mode
        self.kernel_overhead_factor = kernel_overhead_factor
        self.memcpy_overhead_factor = memcpy_overhead_factor
        self._timings: List["InferenceTiming"] = []

    # ------------------------------------------------------------------
    def record(self, timing: "InferenceTiming") -> None:
        """Called by the simulator after each profiled inference."""
        self._timings.append(timing)

    def on_event(self, event: "TelemetryEvent") -> None:
        """Telemetry-sink entry point (the :class:`Profiler` protocol).

        Consumes the full timeline carried by each ``exec.inference``
        span.  A timing already recorded via the per-call ``profiler=``
        path is not double counted when the same instance is *also*
        attached as a bus sink.
        """
        if event.kind is not SpanKind.INFERENCE:
            return
        timing = event.attrs.get("_timing")
        if timing is None:
            return
        if self._timings and self._timings[-1] is timing:
            return
        self.record(timing)

    def reset(self) -> None:
        self._timings.clear()

    @property
    def num_inferences(self) -> int:
        return len(self._timings)

    # ------------------------------------------------------------------
    # The summaries read the timings' name and duration columns; they
    # never build per-event records.
    @staticmethod
    def _summarize(
        rows: Iterable[Tuple[Sequence[str], "np.ndarray"]],
    ) -> Dict[str, KernelStats]:
        stats: Dict[str, KernelStats] = {}
        for names, durations in rows:
            for name, duration in zip(names, durations.tolist()):
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = KernelStats(name)
                entry.add(duration)
        return stats

    def kernel_summary(self) -> Dict[str, KernelStats]:
        """Per-kernel aggregate stats across all recorded inferences."""
        return self._summarize(
            (t.kernel_names, t.kernel_durations) for t in self._timings
        )

    def memcpy_summary(self) -> Dict[str, KernelStats]:
        return self._summarize(
            (t.memcpy_labels, t.memcpy_durations) for t in self._timings
        )

    def invocation_counts(self) -> Dict[str, int]:
        """kernel name -> total invocation count (paper Table XIII)."""
        return {
            name: s.calls for name, s in self.kernel_summary().items()
        }

    def invocation_durations(self, kernel_name: str) -> List[float]:
        """All recorded durations (us) of one kernel, in order."""
        out = []
        for timing in self._timings:
            for name, duration in zip(
                timing.kernel_names, timing.kernel_durations.tolist()
            ):
                if name == kernel_name:
                    out.append(duration)
        return out

    def gpu_trace(self) -> List[tuple]:
        """Chronological (start_us, duration_us, name) trace rows."""
        rows: List[tuple] = []
        for timing in self._timings:
            rows.extend(zip(
                timing.memcpy_starts.tolist(),
                timing.memcpy_durations.tolist(),
                timing.memcpy_labels,
            ))
            rows.extend(zip(
                timing.kernel_starts.tolist(),
                timing.kernel_durations.tolist(),
                timing.kernel_names,
            ))
        return sorted(rows)

    # ------------------------------------------------------------------
    def report(self) -> str:
        """Render the default report for the configured mode."""
        if self.mode == "gpu-trace":
            lines = ["   Start(us)     Dur(us)  Name"]
            for start, dur, name in self.gpu_trace():
                lines.append(f"{start:>12.2f} {dur:>11.2f}  {name}")
            return "\n".join(lines)

        lines = [
            "Type     Time(%)   Time(us)  Calls     Avg(us)     Min(us)"
            "     Max(us)  Name"
        ]
        kernel_stats = sorted(
            self.kernel_summary().values(),
            key=lambda s: -s.total_us,
        )
        memcpy_stats = sorted(
            self.memcpy_summary().values(), key=lambda s: -s.total_us
        )
        total = sum(s.total_us for s in kernel_stats) + sum(
            s.total_us for s in memcpy_stats
        )
        for kind, stats in (
            ("GPU activities", kernel_stats),
            ("CUDA memcpy", memcpy_stats),
        ):
            for s in stats:
                pct = 100.0 * s.total_us / total if total else 0.0
                lines.append(
                    f"{kind[:8]:<8} {pct:>6.2f}% {s.total_us:>10.2f} "
                    f"{s.calls:>6} {s.avg_us:>11.2f} {s.min_us:>11.2f} "
                    f"{s.max_us:>11.2f}  {s.name}"
                )
        return "\n".join(lines)
