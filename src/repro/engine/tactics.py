"""Timing-based kernel tactic selection (paper Figure 2, step 5).

For every optimized layer the builder asks: *which kernel from the
catalog runs this fastest on this device?*  Like TensorRT, it answers
by **timing the candidates on the target hardware** and keeping the
winner.  Timing a kernel on a live board is noisy (DVFS, DRAM refresh,
background work), so when two candidates are within a few percent of
each other, *which one wins varies from build to build*.

That single mechanism produces every "unpredictable" finding in the
paper: different builds bind different kernels (Table XIII), therefore
have different latencies (Table XII), different accumulation orders and
hence occasionally different outputs (Tables V/VI), and a build tuned
on one platform can be pessimal on another (Table VIII).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.graph.ir import DataType
from repro.hardware.cost import CostTable, kernel_columns
from repro.hardware.specs import DeviceSpec
from repro.hardware.workload import LayerWorkload

from repro.engine.kernels import KernelCatalog, KernelSpec
from repro.engine.timing_cache import TimingCache
from repro.telemetry.bus import BUS, SpanKind


@dataclass(frozen=True)
class TacticChoice:
    """Result of one auction: the kernel bound to a layer."""

    layer_name: str
    kernel: KernelSpec
    measured_us: float  # the (noisy) timing that won the auction
    true_us: float  # noiseless model time, kept for analysis
    candidates_timed: int
    #: Candidates whose time came from a *fresh* measurement run (as
    #: opposed to a timing-cache hit).  Only these charge real auction
    #: time to the build; cached candidates cost a hash-probe epsilon.
    #: Equals ``candidates_timed`` on a cold build, 0 on a fully-warm
    #: rebuild.
    candidates_measured: int = -1

    def __post_init__(self):
        if self.candidates_measured < 0:
            # Backwards-compatible default: assume everything was fresh.
            object.__setattr__(
                self, "candidates_measured", self.candidates_timed
            )


class TacticSelector:
    """Runs the per-layer kernel auctions for one engine build.

    Args:
        device: the build target (tactics are device-specific).
        clock_mhz: GPU clock during the build's timing runs.
        rng: the build's random stream — one stream per build, so a
            different seed yields a different engine.
        timing_noise: relative std-dev of one timing measurement
            (~5-10% matches jitter on a busy Jetson).
        timing_repeats: measurements averaged per candidate (TensorRT's
            ``avgTiming``); more repeats => more deterministic builds.
    """

    def __init__(
        self,
        device: DeviceSpec,
        clock_mhz: float,
        rng: np.random.Generator,
        timing_noise: float = 0.08,
        timing_repeats: int = 1,
        timing_cache: "TimingCache | None" = None,
        workspace_limit_bytes: "int | None" = None,
    ):
        if timing_noise < 0:
            raise ValueError("timing_noise must be >= 0")
        if timing_repeats < 1:
            raise ValueError("timing_repeats must be >= 1")
        self.device = device
        self.clock_mhz = clock_mhz
        self._rng = rng
        self.timing_noise = timing_noise
        self.timing_repeats = timing_repeats
        if timing_cache is not None:
            timing_cache.check_device(device)
        self.timing_cache = timing_cache
        self.workspace_limit_bytes = workspace_limit_bytes
        #: Fresh (non-cached) measurement runs this selector performed.
        #: A fully-warm rebuild finishes with this still at 0 — the
        #: store's acceptance tests assert exactly that.
        self.fresh_measurements = 0
        #: Timing-cache lookups that were answered from the cache.
        self.cache_hits = 0

    # ------------------------------------------------------------------
    def measure(
        self, kernels: Sequence[KernelSpec], workload: LayerWorkload
    ) -> Tuple[List[float], List[float]]:
        """(noisy measured times, true model times) of ``kernels`` over
        ``workload``, in microseconds and in list order.

        The true times are one vector evaluation of the cost table.
        The kernels are then measured in order.  With a timing cache
        attached, a previously measured (kernel, shape) pair is
        returned verbatim — no new measurement, no new noise — which is
        what makes cached rebuilds deterministic.
        """
        table = CostTable(kernel_columns(self.device, kernels), workload)
        true = table.kernel_us(table.kernel_terms(self.clock_mhz, 1.0, 1))
        true_times = true.tolist()
        measured: List[float] = []
        cache = self.timing_cache
        for kernel, true_us in zip(kernels, true_times):
            if cache is not None:
                cached = cache.lookup(kernel.name, workload)
                if cached is not None:
                    self.cache_hits += 1
                    measured.append(cached)
                    continue
            self.fresh_measurements += 1
            samples = true_us * (
                1.0
                + self.timing_noise
                * self._rng.standard_normal(self.timing_repeats)
            )
            value = float(np.clip(samples, true_us * 0.5, None).mean())
            if cache is not None:
                cache.store(kernel.name, workload, value)
            measured.append(value)
        return measured, true_times

    def choose(
        self,
        layer_name: str,
        workload: LayerWorkload,
        precisions: Sequence[DataType],
        catalog: KernelCatalog,
    ) -> TacticChoice:
        """Auction all eligible kernels for one layer; keep the winner
        (the first of equally fast ones)."""
        candidates = catalog.candidates(
            workload.category, workload.gemm_k, precisions
        )
        if self.workspace_limit_bytes is not None:
            fitting = [
                k for k in candidates
                if k.workspace_bytes(workload) <= self.workspace_limit_bytes
            ]
            # TensorRT keeps at least one fallback even under a tight
            # workspace: the smallest-scratch candidate.
            candidates = fitting or [
                min(candidates,
                    key=lambda k: k.workspace_bytes(workload))
            ] if candidates else []
        if not candidates:
            raise LookupError(
                f"no kernel in catalog for category {workload.category!r} "
                f"(layer {layer_name!r})"
            )
        fresh_before = self.fresh_measurements
        measured, true_times = self.measure(candidates, workload)
        won = min(range(len(candidates)), key=measured.__getitem__)
        best = TacticChoice(
            layer_name=layer_name,
            kernel=candidates[won],
            measured_us=measured[won],
            true_us=true_times[won],
            candidates_timed=len(candidates),
            candidates_measured=self.fresh_measurements - fresh_before,
        )
        if BUS.active:
            BUS.emit(
                SpanKind.TACTIC_AUCTION,
                layer_name,
                dur_us=best.measured_us,
                kernel=best.kernel.name,
                measured_us=best.measured_us,
                true_us=best.true_us,
                candidates=best.candidates_timed,
            )
        return best

    # ------------------------------------------------------------------
    def merge_is_faster(
        self,
        group_workloads: List[LayerWorkload],
        merged_workload: LayerWorkload,
        precisions: Sequence[DataType],
        catalog: KernelCatalog,
    ) -> bool:
        """Timing-based horizontal-merge decision.

        Compares the (noisy) best time of the merged kernel against the
        sum of the (noisy) best times of the separate kernels — the
        same auction TensorRT runs when considering a merge.  Because
        both sides are measured, the decision itself is build-dependent
        when the margin is small.
        """
        def best_time(workload: LayerWorkload) -> float:
            cands = catalog.candidates(
                workload.category, workload.gemm_k, precisions
            )
            if not cands:
                return float("inf")
            return min(self.measure(cands, workload)[0])

        merged_time = best_time(merged_workload)
        # Added left to right: builtin sum() compensates float sums
        # since Python 3.12, and a near tie must not flip with the
        # interpreter.
        split_time = 0.0
        for workload in group_workloads:
            split_time += best_time(workload)
        return merged_time < split_time
