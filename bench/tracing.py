"""Outside-in host-time tracing of the ``repro`` package.

The tracer wraps functions and methods of ``repro`` modules from the
benchmark's own files; ``src/`` carries no tracing code.  A wrapped call
records a span (name, start, end, parent) on a ``perf_counter`` stack
and adds its duration to its layer's totals.  Self time is a span's
duration minus the durations of its direct child spans, so every
second of a traced rep lands in exactly one layer, or in the rep's own
root span when no wrapped function was running.

Functions are patched at every ``repro.*`` (and ``bench.*``) module
that binds them by name, because ``from x import f`` copies the
reference; methods are patched on the class that defines them.
:meth:`Tracer.uninstall` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# ----------------------------------------------------------------------
# What is wrapped: layer name -> "module:qualname" targets.
# ``module:*`` is every public function defined in the module and
# ``module:Class.*`` every public method defined on the class.
# ----------------------------------------------------------------------
OPS = (
    "conv2d", "depthwise_conv2d", "deconv2d", "fully_connected",
    "max_pool", "avg_pool", "global_avg_pool", "global_max_pool",
    "activation", "batchnorm", "channel_scale", "lrn", "softmax",
    "concat", "elementwise", "upsample_nearest", "detection_output",
    "region_head",
)

PASSES = (
    "remove_dead_layers", "fuse_vertically", "merge_horizontally",
    "plan_quantization", "calibrate_int8",
)

LAYERS: Dict[str, Tuple[str, ...]] = {
    "frameworks": (
        "repro.frameworks.caffe:parse_prototxt",
        "repro.frameworks.darknet:parse_darknet_cfg",
        "repro.frameworks.tensorflow:import_graphdef",
        "repro.frameworks.pytorch:trace_module",
    ),
    "models.build_model": ("repro.models.registry:build_model",),
    **{
        f"passes.{name}": (f"repro.engine.passes:{name}",)
        for name in PASSES
    },
    "tactics.choose": ("repro.engine.tactics:TacticSelector.choose",),
    "tactics.merge_is_faster": (
        "repro.engine.tactics:TacticSelector.merge_is_faster",
    ),
    "builder.build": ("repro.engine.builder:EngineBuilder.build",),
    "plan.save": ("repro.engine.plan:save_plan",),
    "plan.load": (
        "repro.engine.plan:load_plan",
        "repro.engine.plan:read_plan",
    ),
    "store.get_or_build": ("repro.engine.store:EngineStore.get_or_build",),
    "lint": (
        "repro.lint:check_import",
        "repro.lint:lint_graph",
        "repro.lint:lint_engine",
        "repro.lint:lint_plan",
        "repro.lint:lint_flow",
        "repro.lint.invariants:PassInvariantGuard.run",
    ),
    "executor.run": ("repro.runtime.executor:GraphExecutor.run",),
    **{f"ops.{op}": (f"repro.runtime.ops:{op}",) for op in OPS},
    "gpu.simulate": ("repro.hardware.gpu:simulate_inference",),
    "cost.kernel_cost": ("repro.hardware.cost:CostModel.kernel_cost",),
    "scheduler": ("repro.hardware.scheduler:StreamScheduler.*",),
    "profiling": (
        "repro.profiling.nvprof:Nvprof.*",
        "repro.profiling.tegrastats:Tegrastats.*",
        "repro.profiling.chrome_trace:*",
    ),
    "faults": (
        "repro.faults.injector:FaultInjector.*",
        "repro.faults.events:FaultLog.*",
        "repro.faults.scenario:*",
        "repro.faults.disk:*",
        "repro.serving.fleet.faults:device_fault_schedule",
    ),
    "supervisor.serve": ("repro.serving.supervisor:InferenceSupervisor.serve",),
    "batching": (
        "repro.serving.batching:BatchingQueue.*",
        "repro.serving.batching:coalesce",
    ),
    "colocation.run": ("repro.serving.colocation:ColocationScheduler.run",),
    "fleet.traffic": ("repro.serving.fleet.traffic:TrafficModel.generate",),
    "fleet.route": ("repro.serving.fleet.router:FleetRouter.route",),
    "fleet.tick": ("repro.serving.fleet.router:FleetRouter.tick",),
    "fleet.device": ("repro.serving.fleet.device:FleetDevice.*",),
    "fleet.health": ("repro.serving.fleet.health:HealthChecker.*",),
    "fleet.breaker": ("repro.serving.fleet.breaker:CircuitBreaker.*",),
    "fleet.governor": (
        "repro.serving.fleet.degradation:DegradationGovernor.*",
    ),
    "fleet.run": ("repro.serving.fleet.simulator:FleetSimulator.run",),
    "analysis": (
        "repro.analysis.batching:*",
        "repro.analysis.concurrency:*",
        "repro.analysis.dvfs:*",
        "repro.analysis.engines:*",
        "repro.analysis.engines:EngineFarm.*",
        "repro.analysis.fleet:*",
        "repro.analysis.interference:*",
        "repro.analysis.latency:*",
        "repro.apps.adas:*",
        "repro.serving.supervisor:run_fault_comparison",
    ),
    "report": (
        "repro.analysis.report:*",
        "repro.analysis.batching:BatchSweepResult.*",
        "repro.analysis.fleet:FleetComparison.*",
        "repro.analysis.fleet:PlacementComparison.*",
        "repro.analysis.interference:InterferenceReport.*",
        "repro.serving.colocation:ColocationReport.*",
        "repro.serving.fleet.simulator:FleetReport.*",
        "repro.serving.supervisor:ResilienceComparison.*",
        "repro.serving.supervisor:ServiceReport.*",
    ),
}

#: Layers whose per-call durations are kept for percentiles.
PERCENTILE_LAYERS = ("builder.build", "executor.run", "fleet.route")

#: Root span of one traced rep; its self time is the unattributed part.
REP_SPAN = "bench.rep"

# ----------------------------------------------------------------------
# Per-layer metrics: (name, unit, better).  ``<layer>.calls`` and
# ``<layer>.self_s`` are per traced rep; everything else is defined in
# :func:`layer_metrics`.
# ----------------------------------------------------------------------
_CALLS = ("count", "lower")
_SELF = ("s", "lower")


def _metric_table() -> List[Tuple[str, str, str]]:
    rows: List[Tuple[str, Tuple[str, str]]] = [
        ("frameworks.calls", _CALLS),
        ("frameworks.self_s", _SELF),
        ("models.build_model.self_s", _SELF),
    ]
    rows += [(f"passes.{p}.self_s", _SELF) for p in PASSES]
    rows += [
        ("tactics.choose.calls", _CALLS),
        ("tactics.choose.self_s", _SELF),
        ("tactics.merge_is_faster.self_s", _SELF),
        ("tactics.candidates_measured", ("count", "lower")),
        ("tactics.cache_hit_ratio", ("fraction", "higher")),
        ("builder.build.calls", _CALLS),
        ("builder.build.self_s", _SELF),
        ("builder.build.p50_ms", ("ms", "lower")),
        ("builder.build.p90_ms", ("ms", "lower")),
        ("plan.save.self_s", _SELF),
        ("plan.load.self_s", _SELF),
        ("plan.bytes_mb", ("MB", "lower")),
        ("store.get_or_build.self_s", _SELF),
        ("store.hit_ratio", ("fraction", "higher")),
        ("lint.calls", _CALLS),
        ("lint.self_s", _SELF),
        ("executor.run.calls", _CALLS),
        ("executor.run.self_s", _SELF),
        ("executor.run.p50_ms", ("ms", "lower")),
        ("executor.run.p90_ms", ("ms", "lower")),
    ]
    for op in OPS:
        rows += [(f"ops.{op}.calls", _CALLS), (f"ops.{op}.self_s", _SELF)]
    rows += [
        ("ops.out_mb", ("MB", "lower")),
        ("gpu.simulate.calls", _CALLS),
        ("gpu.simulate.self_s", _SELF),
        ("gpu.kernel_events", ("count", "lower")),
        ("gpu.host_us_per_event", ("us", "lower")),
        ("gpu.skeleton_reuse_ratio", ("fraction", "higher")),
        ("gpu.hooked_calls", ("count", "lower")),
        ("gpu.partitioned_calls", ("count", "lower")),
        ("cost.kernel_cost.calls", _CALLS),
        ("cost.kernel_cost.self_s", _SELF),
        ("scheduler.self_s", _SELF),
        ("profiling.self_s", _SELF),
        ("faults.calls", _CALLS),
        ("faults.self_s", _SELF),
        ("supervisor.serve.self_s", _SELF),
        ("supervisor.requests", ("count", "higher")),
        ("supervisor.retries", ("count", "lower")),
        ("supervisor.served_ratio", ("fraction", "higher")),
        ("supervisor.fallback_occupancy", ("fraction", "lower")),
        ("batching.calls", _CALLS),
        ("batching.self_s", _SELF),
        ("batching.mean_batch", ("requests", "higher")),
        ("colocation.run.self_s", _SELF),
        ("colocation.admitted_ratio", ("fraction", "higher")),
        ("fleet.traffic.self_s", _SELF),
        ("fleet.route.calls", _CALLS),
        ("fleet.route.self_s", _SELF),
        ("fleet.route.p50_us", ("us", "lower")),
        ("fleet.route.p99_us", ("us", "lower")),
    ]
    rows += [
        (f"fleet.{part}.self_s", _SELF)
        for part in (
            "tick", "device", "health", "breaker", "governor", "run",
        )
    ]
    rows += [
        ("fleet.useful_dispatch_ratio", ("fraction", "higher")),
        ("fleet.failovers", ("count", "lower")),
        ("analysis.self_s", _SELF),
        ("report.self_s", _SELF),
        ("bench.unattributed_frac", ("fraction", "lower")),
        ("trace.overhead_frac", ("fraction", "lower")),
    ]
    return [(name, unit, better) for name, (unit, better) in rows]


PER_LAYER_METRICS: List[Tuple[str, str, str]] = _metric_table()


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------
def _binding_index() -> Dict[int, List[Tuple[Any, str]]]:
    """id(object) -> every (module, attribute) of a repro or bench
    module that binds it."""
    index: Dict[int, List[Tuple[Any, str]]] = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "repro" or mod_name.startswith(("repro.", "bench"))
        ):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value):
                index.setdefault(id(value), []).append((module, attr))
    return index


def _is_public_function(value: Any) -> bool:
    raw = value.__func__ if isinstance(value, (staticmethod, classmethod)) \
        else value
    return inspect.isfunction(raw) and not (
        inspect.isgeneratorfunction(raw)
        or inspect.iscoroutinefunction(raw)
    )


def resolve(target: str) -> List[Tuple[Any, str, bool]]:
    """Expand one ``module:qualname`` target into ``(owner, attribute,
    is_method)`` triples."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    if qualname == "*":
        return [
            (module, name, False)
            for name, value in sorted(vars(module).items())
            if not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module_name
            and _is_public_function(value)
        ]
    if "." in qualname:
        cls_name, _, method = qualname.partition(".")
        cls = getattr(module, cls_name)
        if method == "*":
            return [
                (cls, name, True)
                for name, value in sorted(vars(cls).items())
                if not name.startswith("_") and _is_public_function(value)
            ]
        if method not in vars(cls):
            raise AttributeError(f"{target}: not defined on {cls_name}")
        return [(cls, method, True)]
    if not callable(getattr(module, qualname)):
        raise TypeError(f"{target} is not callable")
    return [(module, qualname, False)]


class Patcher:
    """Swaps callables for wrappers and restores the originals."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []
        self._index: Optional[Dict[int, List[Tuple[Any, str]]]] = None

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch(
        self, owner: Any, attr: str, is_method: bool,
        make_wrapper: Callable[[Callable], Callable],
    ) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)``."""
        raw = vars(owner)[attr]
        if is_method:
            if isinstance(raw, (staticmethod, classmethod)):
                self._set(owner, attr, type(raw)(make_wrapper(raw.__func__)))
            else:
                self._set(owner, attr, make_wrapper(raw))
            return
        if self._index is None:
            self._index = _binding_index()
        if id(raw) not in self._index:
            raise ValueError(f"{attr} is already patched")
        wrapper = make_wrapper(raw)
        for module, name in self._index[id(raw)]:
            if vars(module).get(name) is raw:
                self._set(module, name, wrapper)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._index = None


@contextmanager
def count_calls(target: str) -> Iterator[List[int]]:
    """Count calls of ``target`` (one resolved callable) while the
    block runs; yields a one-element list holding the count."""
    ((owner, attr, is_method),) = resolve(target)
    count = [0]

    def make_wrapper(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            count[0] += 1
            return fn(*args, **kwargs)
        return counted

    patcher = Patcher()
    patcher.patch(owner, attr, is_method, make_wrapper)
    try:
        yield count
    finally:
        patcher.restore()


# ----------------------------------------------------------------------
# counters derived from call arguments and results
# ----------------------------------------------------------------------
Hook = Callable[["Tracer", tuple, dict, Any], None]


def _tactic_hook(t: "Tracer", args: tuple, kwargs: dict, choice: Any) -> None:
    t.add("tactics.candidates_measured", choice.candidates_measured)
    t.add("tactics.candidates_timed", choice.candidates_timed)


def _plan_save_hook(t: "Tracer", args: tuple, kwargs: dict, _: Any) -> None:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    t.add("plan.bytes", os.path.getsize(path))


def _store_hook(t: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    t.add("store.hits", 1 if result[1].is_hit else 0)


def _ops_hook(t: "Tracer", args: tuple, kwargs: dict, out: Any) -> None:
    t.add("ops.out_bytes", getattr(out, "nbytes", 0))


def _gpu_hook(t: "Tracer", args: tuple, kwargs: dict, timing: Any) -> None:
    t.add("gpu.kernel_events", len(timing.kernel_events))
    if kwargs.get("hardware_hook") is not None:
        t.add("gpu.hooked_calls", 1)
    bindings = kwargs.get("bindings", args[0] if args else ())
    seen = t.scratch.setdefault("partitioned", {})
    if id(bindings) not in seen:
        seen[id(bindings)] = (bindings, any(
            getattr(b, "transfer", None) is not None for b in bindings
        ))
    if seen[id(bindings)][1]:
        t.add("gpu.partitioned_calls", 1)
    cache = kwargs.get("skeleton_cache")
    if cache is None:
        t.add("gpu.skeleton_keys", 1)
        return
    # The key simulate_inference memoizes its timeline skeleton under;
    # the cache dict is pinned so its id is not reused within the rep.
    pinned = t.scratch.setdefault("skeleton_caches", {})
    pinned[id(cache)] = cache
    key = (
        id(cache),
        float(kwargs.get("clock_mhz", 0.0)),
        float(kwargs.get("sm_fraction", 1.0)),
        kwargs.get("batch_size", 1),
        bool(kwargs.get("include_engine_upload", True)),
        float(kwargs.get("mem_contention", 1.0)),
    )
    keys = t.scratch.setdefault("skeleton_keys", set())
    if key not in keys:
        keys.add(key)
        t.add("gpu.skeleton_keys", 1)


def _serve_hook(t: "Tracer", args: tuple, kwargs: dict, report: Any) -> None:
    served = [r for r in report.records if not r.dropped]
    t.add("supervisor.requests", report.requests)
    t.add("supervisor.retries", report.total_retries)
    t.add("supervisor.served", len(served))
    t.add("supervisor.fallback_served", sum(1 for r in served if r.level))


def _batch_hook(t: "Tracer", args: tuple, kwargs: dict, batch: Any) -> None:
    if batch is not None and hasattr(batch, "requests"):
        t.add("batching.batches", 1)
        t.add("batching.requests", len(batch.requests))


def _coloc_hook(t: "Tracer", args: tuple, kwargs: dict, report: Any) -> None:
    t.add("colocation.tenants", len(report.tenants))
    t.add("colocation.admitted", len(report.admitted))


def _route_hook(t: "Tracer", args: tuple, kwargs: dict, outcome: Any) -> None:
    t.add("fleet.dispatches", outcome.dispatches)


def _fleet_run_hook(t: "Tracer", args: tuple, kwargs: dict, report: Any) -> None:
    t.add("fleet.failovers", report.failovers)


HOOKS: Dict[str, Hook] = {
    "tactics.choose": _tactic_hook,
    "plan.save": _plan_save_hook,
    "store.get_or_build": _store_hook,
    "gpu.simulate": _gpu_hook,
    "supervisor.serve": _serve_hook,
    "batching": _batch_hook,
    "colocation.run": _coloc_hook,
    "fleet.route": _route_hook,
    "fleet.run": _fleet_run_hook,
    **{f"ops.{op}": _ops_hook for op in OPS},
}


# ----------------------------------------------------------------------
# the tracer
# ----------------------------------------------------------------------
class Tracer:
    """Span recorder with per-layer call counts and self time.

    ``clock`` is injectable so tests can drive a synthetic span tree.
    Only the first ``max_spans`` spans are kept for the Chrome trace;
    the per-layer totals always cover every call.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_spans: int = 50_000,
    ) -> None:
        self.clock = clock
        self.max_spans = max_spans
        #: Open spans, innermost last: [child seconds, span name].
        self._stack: List[List[Any]] = []
        #: layer -> [calls, total seconds, self seconds]
        self.layers: Dict[str, List[float]] = {}
        self.durations: Dict[str, List[float]] = {
            name: [] for name in PERCENTILE_LAYERS
        }
        self.counters: Dict[str, float] = {}
        #: Per-rep state of the counter hooks; cleared by begin_rep().
        self.scratch: Dict[str, Any] = {}
        #: Kept spans: (name, start, end, parent name or None).
        self.spans: List[Tuple[str, float, float, Optional[str]]] = []
        self.dropped_spans = 0
        self.reps = 0
        self._patcher = Patcher()

    # -- recording -----------------------------------------------------
    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def _close(
        self, layer: str, name: str, frame: List[Any], start: float
    ) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][0] += duration
        totals = self.layers.get(layer)
        if totals is None:
            totals = self.layers[layer] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame[0]
        durations = self.durations.get(layer)
        if durations is not None:
            durations.append(duration)
        if len(self.spans) < self.max_spans:
            parent = stack[-1][1] if stack else None
            self.spans.append((name, start, end, parent))
        else:
            self.dropped_spans += 1

    @contextmanager
    def span(self, layer: str, name: Optional[str] = None) -> Iterator[None]:
        """Record the enclosed block as one span of ``layer``."""
        frame: List[Any] = [0.0, name or layer]
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            self._close(layer, name or layer, frame, start)

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to record a span of ``layer`` per call."""
        hook = HOOKS.get(layer)
        stack = self._stack
        clock = self.clock
        close = self._close

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame: List[Any] = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(layer, name, frame, start)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every target of :data:`LAYERS`."""
        # Resolve first: it imports modules the binding index must see.
        resolved = [
            (layer, owner, attr, is_method)
            for layer, targets in LAYERS.items()
            for target in targets
            for owner, attr, is_method in resolve(target)
        ]
        for layer, owner, attr, is_method in resolved:
            qual = f"{owner.__name__}.{attr}" if is_method else attr
            self._patcher.patch(
                owner, attr, is_method,
                functools.partial(self.wrap, layer, f"{layer}:{qual}"),
            )

    def uninstall(self) -> None:
        self._patcher.restore()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def rep(self) -> Iterator[None]:
        """One traced rep: a root span plus fresh per-rep hook state."""
        self.scratch = {}
        with self.span(REP_SPAN):
            yield
        self.scratch = {}
        self.reps += 1

    # -- reading -------------------------------------------------------
    def calls(self, layer: str) -> float:
        return self.layers.get(layer, [0, 0.0, 0.0])[0]

    def total_s(self, layer: str) -> float:
        return self.layers.get(layer, [0, 0.0, 0.0])[1]

    def self_s(self, layer: str) -> float:
        return self.layers.get(layer, [0, 0.0, 0.0])[2]

    def chrome_trace(self) -> Dict[str, Any]:
        """Kept spans as a Chrome trace (``chrome://tracing``)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "cat": name.partition(":")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"parent": parent},
            }
            for name, start, end, parent in sorted(
                self.spans, key=lambda s: (s[1], -s[2])
            )
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped_spans},
        }

    def save_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: List[float], q: int, scale: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * scale
    return statistics.quantiles(values, n=100)[q - 1] * scale


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac``, which
    needs the untraced reps and is added by the runner."""
    reps = max(1, tracer.reps)
    c = tracer.counters.get
    special: Dict[str, float] = {
        "tactics.candidates_measured": c("tactics.candidates_measured", 0)
        / reps,
        "tactics.cache_hit_ratio": 1.0 - _ratio(
            c("tactics.candidates_measured", 0),
            c("tactics.candidates_timed", 0),
        ) if c("tactics.candidates_timed") else 0.0,
        "builder.build.p50_ms": _percentile(
            tracer.durations["builder.build"], 50, 1e3
        ),
        "builder.build.p90_ms": _percentile(
            tracer.durations["builder.build"], 90, 1e3
        ),
        "plan.bytes_mb": c("plan.bytes", 0) / reps / 2**20,
        "store.hit_ratio": _ratio(
            c("store.hits", 0), tracer.calls("store.get_or_build")
        ),
        "executor.run.p50_ms": _percentile(
            tracer.durations["executor.run"], 50, 1e3
        ),
        "executor.run.p90_ms": _percentile(
            tracer.durations["executor.run"], 90, 1e3
        ),
        "ops.out_mb": c("ops.out_bytes", 0) / reps / 2**20,
        "gpu.kernel_events": c("gpu.kernel_events", 0) / reps,
        "gpu.host_us_per_event": 1e6 * _ratio(
            tracer.total_s("gpu.simulate"), c("gpu.kernel_events", 0)
        ),
        "gpu.skeleton_reuse_ratio": 1.0 - _ratio(
            c("gpu.skeleton_keys", 0), tracer.calls("gpu.simulate")
        ) if tracer.calls("gpu.simulate") else 0.0,
        "gpu.hooked_calls": c("gpu.hooked_calls", 0) / reps,
        "gpu.partitioned_calls": c("gpu.partitioned_calls", 0) / reps,
        "supervisor.requests": c("supervisor.requests", 0) / reps,
        "supervisor.retries": c("supervisor.retries", 0) / reps,
        "supervisor.served_ratio": _ratio(
            c("supervisor.served", 0), c("supervisor.requests", 0)
        ),
        "supervisor.fallback_occupancy": _ratio(
            c("supervisor.fallback_served", 0), c("supervisor.served", 0)
        ),
        "batching.mean_batch": _ratio(
            c("batching.requests", 0), c("batching.batches", 0)
        ),
        "colocation.admitted_ratio": _ratio(
            c("colocation.admitted", 0), c("colocation.tenants", 0)
        ),
        "fleet.route.p50_us": _percentile(
            tracer.durations["fleet.route"], 50, 1e6
        ),
        "fleet.route.p99_us": _percentile(
            tracer.durations["fleet.route"], 99, 1e6
        ),
        "fleet.useful_dispatch_ratio": _ratio(
            tracer.calls("fleet.route"), c("fleet.dispatches", 0)
        ),
        "fleet.failovers": c("fleet.failovers", 0) / reps,
        "bench.unattributed_frac": _ratio(
            tracer.self_s(REP_SPAN), tracer.total_s(REP_SPAN)
        ),
    }
    out: Dict[str, float] = {}
    for name, _unit, _better in PER_LAYER_METRICS:
        if name == "trace.overhead_frac":
            continue
        if name in special:
            out[name] = float(special[name])
        elif name.endswith(".calls"):
            out[name] = tracer.calls(name[: -len(".calls")]) / reps
        elif name.endswith(".self_s"):
            out[name] = tracer.self_s(name[: -len(".self_s")]) / reps
        else:  # pragma: no cover - table and code out of sync
            raise KeyError(f"no definition for per-layer metric {name}")
    return out
