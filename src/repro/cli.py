"""``trtsim`` command-line interface.

Sub-commands mirror the workflows of the paper's measurement setup::

    trtsim devices                       # Table I (deviceQuery)
    trtsim models                        # Table II (the model zoo)
    trtsim build resnet18 --device NX    # build an engine, print stats
    trtsim run resnet18 --device AGX     # latency, paper methodology
    trtsim profile pednet --device NX    # nvprof-style kernel summary
    trtsim concurrency tiny_yolov3 --device AGX   # Figs 3/4 sweep
    trtsim batch-sweep googlenet --device NX      # micro-batch ladder
    trtsim accuracy                      # Table III
    trtsim lint resnet18 --precision int8         # static verifier
    trtsim lint engine.plan --json       # audit a serialized plan
    trtsim analyze --zoo --races         # whole-program static analysis
    trtsim faults resnet18 --scenario thermal_oom # resilience SLOs
    trtsim fleet --compare --scenario fleet_chaos # fleet failover SLOs
    trtsim metrics googlenet --device nx --json   # unified telemetry
    trtsim trace googlenet --unified     # bus-rendered chrome trace
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_devices(_args) -> int:
    from repro.hardware import XAVIER_AGX, XAVIER_NX, device_query

    for spec in (XAVIER_NX, XAVIER_AGX):
        print(device_query(spec))
        print()
    return 0


def _cmd_models(_args) -> int:
    from repro.models import MODEL_REGISTRY, build_model

    header = (
        f"{'model':<26}{'task':<16}{'framework':<12}"
        f"{'convs':>6}{'maxpool':>8}{'params':>10}"
    )
    print(header)
    print("-" * len(header))
    for name, info in MODEL_REGISTRY.items():
        graph = build_model(name, pretrained=False)
        print(
            f"{info.display_name:<26}{info.task:<16}{info.framework:<12}"
            f"{info.paper_convs:>6}{info.paper_max_pools:>8}"
            f"{graph.weight_volume():>10}"
        )
    return 0


def _cmd_build(args) -> int:
    from repro.analysis.engines import device_by_name
    from repro.engine import BuilderConfig, EngineBuilder, PrecisionMode
    from repro.engine.plan import save_plan
    from repro.models import build_model

    device = device_by_name(args.device)
    config = BuilderConfig(
        precision=PrecisionMode(args.precision),
        seed=args.seed,
        provider=args.provider,
    )
    network = build_model(args.model, pretrained=not args.no_pretrain)
    if getattr(args, "store", None):
        from repro.engine import EngineStore

        store = EngineStore(args.store)
        engine, result = store.get_or_build(network, device, config)
        print(
            f"store {result.outcome} [{result.key[:12]}] "
            f"build {engine.build_time_us / 1e3:.2f} ms, "
            f"{result.fresh_measurements} fresh measurements"
        )
    else:
        engine = EngineBuilder(device, config).build(network)
    print(engine.describe())
    for report in engine.pass_reports:
        print(str(report).splitlines()[0])
    if args.output:
        save_plan(engine, args.output)
        print(f"plan written to {args.output}")
    return 0


def _cmd_run(args) -> int:
    from repro.analysis.engines import EngineFarm, device_by_name
    from repro.analysis.latency import measure_case
    from repro.profiling.nvprof import Nvprof

    farm = EngineFarm(pretrained=False)
    engine = farm.engine(
        args.model, args.compile_device, args.slot,
        provider=args.provider,
    )
    profiler = Nvprof() if args.nvprof else None
    stats = measure_case(
        engine,
        args.device,
        runs=args.runs,
        profiler=profiler,
        include_engine_upload=not args.no_memcpy,
        clock_mhz=args.clock_mhz,
        batch_size=args.batch_size,
    )
    print(
        f"{args.model} compiled on {args.compile_device}, "
        f"run on {args.device}: {stats} ms over {stats.runs} runs "
        f"({stats.fps:.1f} FPS)"
    )
    return 0


def _cmd_profile(args) -> int:
    from repro.analysis.engines import EngineFarm
    from repro.analysis.latency import measure_case
    from repro.profiling.nvprof import Nvprof

    farm = EngineFarm(pretrained=False)
    engine = farm.engine(args.model, args.device, 0)
    profiler = Nvprof(mode=args.mode)
    measure_case(engine, args.device, runs=args.runs, profiler=profiler)
    print(profiler.report())
    return 0


def _cmd_concurrency(args) -> int:
    from repro.analysis.concurrency import concurrency_sweep

    figure = concurrency_sweep(
        args.model,
        args.device,
        batch_size=args.batch_size,
        clock_mhz=args.clock_mhz,
    )
    if not figure.result.points:
        print(
            f"{args.model} on {args.device}: no stream fits "
            f"(batch {args.batch_size})"
        )
        return 1
    batch_note = (
        f" (micro-batch {args.batch_size})" if args.batch_size != 1 else ""
    )
    print(
        f"{args.model} on {args.device}{batch_note}: saturates at "
        f"{figure.saturation_threads} threads, "
        f"{figure.saturation_fps:.1f} FPS/thread, "
        f"{figure.saturation_gpu_util:.1f}% GPU"
    )
    print(f"{'threads':>8} {'FPS/thread':>12} {'GPU util %':>11}")
    for point in figure.result.points:
        print(
            f"{point.threads:>8} {point.fps_per_thread:>12.1f} "
            f"{point.gpu_utilization_pct:>11.1f}"
        )
    return 0


def _cmd_batch_sweep(args) -> int:
    """Micro-batch ladder: latency / FPS / FPS-per-watt per batch size
    (the dynamic-batching extension's headline table)."""
    from repro.analysis.batching import DEFAULT_BATCHES, batch_sweep

    batches = (
        tuple(int(b) for b in args.batches.split(","))
        if args.batches
        else DEFAULT_BATCHES
    )
    result = batch_sweep(
        args.model, args.device, batches=batches, clock_mhz=args.clock_mhz
    )
    if args.trace:
        from repro.telemetry import ChromeTrace

        trace = ChromeTrace()
        trace.add_timings(result.timings)
        trace.save(args.trace)
    if args.json:
        print(result.to_json())
        return 0
    print(
        f"{args.model} on {result.device_name} @ "
        f"{result.clock_mhz:.0f} MHz: batch sweep "
        f"(saturates at batch {result.saturation_batch})"
    )
    print(
        f"{'batch':>6} {'latency ms':>11} {'per-req ms':>11} "
        f"{'agg FPS':>10} {'FPS/W':>8} {'speedup':>8} {'limit':>6}"
    )
    for p in result.points:
        limit = "bw" if p.bandwidth_limited else ""
        print(
            f"{p.batch:>6} {p.latency_ms:>11.3f} "
            f"{p.per_request_ms:>11.3f} {p.aggregate_fps:>10.1f} "
            f"{p.fps_per_watt:>8.1f} {p.speedup:>7.2f}x {limit:>6}"
        )
    if args.trace:
        print(f"batch-annotated trace written to {args.trace}")
    return 0


def _cmd_exec(args) -> int:
    """trtexec-style one-shot: build, run, report (the workflow NVIDIA
    ships as the trtexec binary)."""
    from repro.analysis.engines import EngineFarm
    from repro.analysis.latency import measure_case
    from repro.profiling.nvprof import Nvprof

    farm = EngineFarm(pretrained=False)
    engine = farm.engine(args.model, args.device, 0)
    print(engine.describe())
    profiler = Nvprof()
    stats = measure_case(
        engine, args.device, runs=args.runs, profiler=profiler
    )
    print(f"\nlatency: {stats} ms over {stats.runs} runs "
          f"({stats.fps:.1f} FPS)")
    print("\nper-kernel summary:")
    print(profiler.report())
    return 0


def _cmd_clocks(args) -> int:
    from repro.analysis.dvfs import clock_sweep

    sweep = clock_sweep(args.model, args.device)
    print(f"{args.model} on {args.device}: DVFS ladder sweep")
    print(f"{'MHz':>9} {'latency ms':>11} {'FPS':>9} {'W':>6} {'FPS/W':>8}")
    for point in sweep.points:
        print(
            f"{point.clock_mhz:>9.2f} {point.latency_ms:>11.3f} "
            f"{point.fps:>9.1f} {point.power_w:>6.2f} "
            f"{point.fps_per_watt:>8.1f}"
        )
    best = sweep.most_efficient()
    print(f"\nmax-vs-min speedup: {sweep.speedup_max_vs_min:.2f}x; "
          f"best efficiency at {best.clock_mhz:.0f} MHz "
          f"({best.fps_per_watt:.1f} FPS/W)")
    return 0


def _cmd_inspect(args) -> int:
    """Per-layer engine report (TensorRT's EngineInspector)."""
    from repro.analysis.engines import EngineFarm
    from repro.engine.inspector import inspect_engine, inspect_engine_json

    farm = EngineFarm(pretrained=False)
    engine = farm.engine(
        args.model, args.device, args.slot, provider=args.provider
    )
    if args.json:
        print(inspect_engine_json(engine))
        return 0
    report = inspect_engine(engine)
    print(f"{report['engine']}: {report['num_layers']} layers, "
          f"{report['num_kernel_invocations']} kernel invocations, "
          f"predicted {report['predicted_kernel_us']:.1f} us")
    lint = report["lint"]
    print(f"lint: {lint['status'].upper()} ({lint['errors']} error(s), "
          f"{lint['warnings']} warning(s))")
    print(f"{'layer':<30}{'kind':<20}{'kernel':<58}{'us':>8}")
    for entry in report["layers"]:
        for kernel in entry["kernels"]:
            print(
                f"{entry['layer'][:29]:<30}{entry['kind']:<20}"
                f"{kernel['name'][:57]:<58}{kernel['predicted_us']:>8.2f}"
            )
    return 0


def _cmd_lint(args) -> int:
    """Static verification (``repro.lint``): audit a zoo model's graph
    and built engine, or a serialized ``.plan`` file."""
    from pathlib import Path

    from repro.lint import lint_engine, lint_graph, lint_plan

    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None

    target = Path(args.target)
    if target.suffix == ".plan" or target.is_file():
        report = lint_plan(target, select=select, ignore=ignore)
    else:
        from repro.analysis.engines import device_by_name
        from repro.engine import BuilderConfig, EngineBuilder, PrecisionMode
        from repro.models import build_model

        graph = build_model(args.target, pretrained=False)
        report = lint_graph(graph, select=select, ignore=ignore)
        report.subject = (
            f"{args.target} ({args.precision} @ {args.device})"
        )
        if report.ok:
            engine = EngineBuilder(
                device_by_name(args.device),
                BuilderConfig(
                    precision=PrecisionMode(args.precision), seed=args.seed
                ),
            ).build(graph)
            report.extend(
                lint_engine(engine, select=select, ignore=ignore)
            )

    if args.json:
        print(report.to_json())
    else:
        print(report.format_text())
    return 0 if report.passed(strict=args.strict) else 1


def _cmd_analyze(args) -> int:
    """Whole-program analysis (``repro.lint.flow`` + ``repro.lint.races``):
    dataflow-check built engines across the zoo and race-check the
    serving-stack sources, gated against an optional baseline."""
    from repro.analysis.engines import device_by_name
    from repro.engine import BuilderConfig, EngineBuilder, PrecisionMode
    from repro.lint import (
        AnalyzeReport,
        Baseline,
        lint_flow,
        lint_races,
        update_baseline,
    )
    from repro.models import build_model, list_models

    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None

    models = list(args.models)
    if args.zoo:
        models = list(list_models())
    races = args.races
    if not models and races is None:
        # Bare ``trtsim analyze``: full sweep — every zoo model at every
        # requested precision, plus the serving-stack sources.
        models = list(list_models())
        races = ""

    precisions = [p.strip() for p in args.precision.split(",") if p.strip()]
    device = device_by_name(args.device)

    report = AnalyzeReport()
    for name in models:
        graph = build_model(name, pretrained=False)
        for prec in precisions:
            engine = EngineBuilder(
                device, BuilderConfig(precision=PrecisionMode(prec), seed=0)
            ).build(graph)
            report.add(
                lint_flow(
                    engine,
                    batch_size=args.batch,
                    select=select,
                    ignore=ignore,
                    subject_name=f"{name}:{prec}",
                )
            )
    if races is not None:
        report.add(
            lint_races(
                paths=[races] if races else None,
                select=select,
                ignore=ignore,
            )
        )

    if args.update_baseline:
        if not args.baseline:
            print("analyze: --update-baseline requires --baseline FILE")
            return 2
        baseline = update_baseline(report, args.baseline)
        print(
            f"analyze: wrote {len(baseline)} fingerprint(s) "
            f"to {args.baseline}"
        )
        return 0
    if args.baseline:
        report.apply_baseline(Baseline.load(args.baseline))

    if args.sarif:
        report.save_sarif(args.sarif)
    if args.json:
        print(report.to_json())
    else:
        print(report.format_text())
    return 0 if report.passed(strict=args.strict) else 1


def _cmd_trace(args) -> int:
    """Export an inference timeline as a chrome://tracing JSON file.

    ``--unified`` renders the trace from the telemetry bus instead of
    bare timings: a short supervised serving run is captured with the
    :class:`~repro.telemetry.ChromeTrace` sink attached, so requests,
    micro-batches, and faults land on their own tracks next to the
    kernel/memcpy rows.
    """
    from repro import telemetry
    from repro.analysis.engines import EngineFarm, device_by_name

    farm = EngineFarm(pretrained=False)
    engine = farm.engine(args.model, args.device, 0)
    device = device_by_name(args.device)
    trace = telemetry.ChromeTrace()
    if args.unified:
        from repro.serving.batching import BatchingConfig
        from repro.serving.supervisor import (
            InferenceSupervisor,
            StreamSpec,
            SupervisorConfig,
        )

        supervisor = InferenceSupervisor(
            engine,
            streams=[StreamSpec(f"cam{i}") for i in range(2)],
            config=SupervisorConfig(),
            device=device,
            seed=args.seed,
            batching=BatchingConfig(max_batch=2),
        )
        with telemetry.session(trace):
            supervisor.serve(frames=args.runs)
        trace.save(args.output)
        print(
            f"wrote unified telemetry trace ({args.runs} frames, "
            f"2 streams) to {args.output}"
        )
        return 0
    context = engine.create_execution_context(device)
    trace.add_timings(
        context.time_inference(jitter=0.0) for _ in range(args.runs)
    )
    trace.save(args.output)
    print(f"wrote {args.runs} inference timeline(s) to {args.output}")
    return 0


def _cmd_metrics(args) -> int:
    """Unified telemetry of a short supervised serving run: Prometheus
    text exposition (default), a JSON document (``--json``), and an
    optional per-event JSONL snapshot (``--jsonl FILE``)."""
    import json

    from repro import telemetry
    from repro.analysis.engines import EngineFarm, device_by_name
    from repro.serving.supervisor import (
        InferenceSupervisor,
        StreamSpec,
        SupervisorConfig,
    )

    farm = EngineFarm(pretrained=False)
    engine = farm.engine(args.model, args.device, 0)
    device = device_by_name(args.device)
    injector = None
    if args.scenario:
        from repro.faults import canned_plan
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(
            canned_plan(args.scenario, seed=args.seed)
        )
    supervisor = InferenceSupervisor(
        engine,
        streams=[
            StreamSpec(f"cam{i}", priority=i)
            for i in range(args.streams)
        ],
        config=SupervisorConfig(deadline_ms=args.deadline_ms),
        injector=injector,
        device=device,
        seed=args.seed,
    )
    prom = telemetry.PrometheusSink()
    jsonl = telemetry.JsonlSink(args.jsonl)
    with telemetry.session(prom, jsonl) as tsn:
        report = supervisor.serve(frames=args.frames)
    if args.json:
        print(
            json.dumps(
                {
                    "schema": "trtsim.metrics/1",
                    "model": args.model,
                    "device": device.name,
                    "frames": args.frames,
                    "report": report.to_dict(),
                    "metrics": tsn.metrics.to_dict(),
                },
                indent=2,
            )
        )
    else:
        print(prom.expose(), end="")
        print(f"# {report.summary()}")
    if args.jsonl:
        print(
            f"telemetry JSONL written to {args.jsonl}", file=sys.stderr
        )
    return 0


def _cmd_warmup(args) -> int:
    """Pre-build the pretrained model-zoo cache (the slow first-run
    step of the accuracy/consistency benchmarks)."""
    import time

    from repro.models import MODEL_REGISTRY, build_model

    names = (
        args.models.split(",") if args.models else list(MODEL_REGISTRY)
    )
    for name in names:
        start = time.time()
        build_model(name, pretrained=True)
        print(f"  {name:<26} ready ({time.time() - start:5.1f}s)")
    return 0


def _cmd_accuracy(args) -> int:
    from repro.analysis.accuracy import benign_accuracy

    models = args.models.split(",") if args.models else None
    rows = benign_accuracy(models=models) if models else benign_accuracy()
    print(f"{'model':<14}{'AGX err%':>10}{'NX err%':>10}{'unopt err%':>12}")
    for row in rows:
        print(
            f"{row.model:<14}{row.agx_error:>10.2f}{row.nx_error:>10.2f}"
            f"{row.unoptimized_error:>12.2f}"
        )
    return 0


def _cmd_faults(args) -> int:
    """Run a fault-injection campaign against an app workload,
    supervised vs unsupervised, and report SLO attainment."""
    from repro.analysis.engines import EngineFarm
    from repro.faults import canned_plan

    if args.scenario_file is not None:
        plan = args.scenario_file  # loaded by _fault_plan_file
        if args.seed is not None:
            plan.seed = args.seed
    else:
        plan = canned_plan(args.scenario, seed=args.seed or 0)

    farm = EngineFarm(pretrained=False)
    engine = farm.engine(args.model, args.device, 0)
    fallbacks = [
        farm.engine(name, args.device, 0)
        for name in (args.fallback or [])
    ]

    if args.app == "adas":
        from repro.apps.adas import run_fault_scenario

        comparison = run_fault_scenario(
            engine,
            plan,
            fallbacks=fallbacks,
            deadline_ms=args.deadline_ms or 33.0,
            frames=args.frames,
            seed=args.workload_seed,
        )
    else:
        from repro.apps.traffic import run_fault_scenario

        comparison = run_fault_scenario(
            engine,
            plan,
            fallbacks=fallbacks,
            deadline_ms=args.deadline_ms,
            frames=args.frames,
            seed=args.workload_seed,
        )

    print(comparison.slo_table())
    log = comparison.supervised.fault_log
    if args.events and log is not None and len(log):
        print("\nfault events (supervised run):")
        print(log.render())
    if args.trace:
        from repro.telemetry import ChromeTrace

        context = engine.create_execution_context()
        trace = ChromeTrace()
        trace.add_timing(context.time_inference(jitter=0.0))
        trace.add_fault_log(log)
        trace.save(args.trace)
        print(f"\nfault-annotated trace written to {args.trace}")
    return 0


def _store_engine_doc(engine, result) -> dict:
    return {
        "key": result.key,
        "outcome": result.outcome,
        "hit": result.is_hit,
        "build_time_us": engine.build_time_us,
        "fresh_measurements": result.fresh_measurements,
        "build_seed": engine.build_seed,
        "kernels": engine.kernel_names(),
    }


def _cmd_store(args) -> int:
    """Persistent engine store: build/ls/gc/warm/stats."""
    import json as _json

    from repro.analysis.engines import device_by_name
    from repro.engine import BuilderConfig, EngineStore, PrecisionMode

    store = EngineStore(args.store)

    if args.store_command == "build":
        from repro.models import build_model

        device = device_by_name(args.device)
        config = BuilderConfig(
            precision=PrecisionMode(args.precision), seed=args.seed,
            provider=args.provider,
        )
        network = build_model(args.model, pretrained=not args.no_pretrain)
        engine, result = store.get_or_build(network, device, config)
        if args.json:
            print(_json.dumps(_store_engine_doc(engine, result), indent=2))
        else:
            print(
                f"{args.model}@{device.name}: {result.outcome} "
                f"[{result.key[:12]}] build "
                f"{engine.build_time_us / 1e3:.2f} ms, "
                f"{result.fresh_measurements} fresh measurements, "
                f"{engine.num_kernels} kernels"
            )
        return 0

    if args.store_command == "ls":
        entries = store.entries()
        if args.json:
            print(_json.dumps(
                [e.to_dict() for e in entries], indent=2
            ))
            return 0
        if not entries:
            print(f"store {store.root}: empty")
            return 0
        header = (
            f"{'key':<14}{'network':<22}{'device':<12}"
            f"{'size':>10}{'kernels':>9}{'build ms':>10}"
        )
        print(header)
        print("-" * len(header))
        for e in entries:
            print(
                f"{e.digest[:12]:<14}{e.key.network:<22}"
                f"{e.key.device:<12}{e.size_bytes:>10}"
                f"{len(e.kernels):>9}{e.build_time_us / 1e3:>10.2f}"
            )
        print(f"{len(entries)} entries, {store.total_bytes} bytes")
        return 0

    if args.store_command == "gc":
        max_bytes = (
            int(args.max_mb * 1024 * 1024)
            if args.max_mb is not None else None
        )
        evicted = store.gc(
            max_bytes=max_bytes, max_entries=args.max_entries
        )
        for e in evicted:
            print(f"evicted {e.digest[:12]} ({e.key.network}, "
                  f"{e.size_bytes} bytes)")
        print(
            f"{len(evicted)} evicted; "
            f"{len(store.entries())} entries remain"
        )
        return 0

    if args.store_command == "warm":
        from repro.models import MODEL_REGISTRY, build_model

        device = device_by_name(args.device)
        config = BuilderConfig(
            precision=PrecisionMode(args.precision), seed=args.seed,
            provider=args.provider,
        )
        names = (
            args.models.split(",") if args.models
            else list(MODEL_REGISTRY)
        )
        for name in names:
            network = build_model(
                name, pretrained=not args.no_pretrain
            )
            engine, result = store.get_or_build(network, device, config)
            print(
                f"  {name:<26} {result.outcome:<8} "
                f"[{result.key[:12]}] "
                f"{engine.build_time_us / 1e3:8.2f} ms"
            )
        return 0

    # stats
    print(_json.dumps(store.stats(), indent=2))
    return 0


def _cmd_providers(args) -> int:
    """Execution providers: list them, or compare across the zoo."""
    import json as _json

    if args.providers_command == "ls":
        from repro.runtime.providers import (
            DEFAULT_PROVIDER_PRIORITY,
            resolve_provider,
        )

        print(f"{'name':<8}{'onnx name':<28}{'fusion':<8}"
              f"{'tactics':<9}{'int8':<6}")
        for name in DEFAULT_PROVIDER_PRIORITY:
            prov = resolve_provider(name)
            from repro.graph.ir import DataType

            int8 = "yes" if prov.supports_precision(DataType.INT8) else "no"
            print(f"{prov.name:<8}{prov.onnx_name:<28}"
                  f"{'yes' if prov.fuses_layers else 'no':<8}"
                  f"{'yes' if prov.tactic_search else 'no':<9}{int8:<6}")
        return 0

    # compare
    from repro.analysis.providers import provider_compare

    models = args.models.split(",") if args.models else None
    report = provider_compare(
        models=models,
        device_name=args.device,
        seed=args.seed,
        int8_model=args.int8_model,
    )
    doc = _json.dumps(report, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(doc + "\n")
        print(f"report written to {args.output}")
    if args.json:
        print(doc)
    else:
        print(f"provider compare on {report['device']} "
              f"({', '.join(report['providers'])})")
        header = f"{'model':<26}" + "".join(
            f"{p_ + ' ms':>14}" for p_ in report["providers"]
        ) + f"{'ordered':>9}{'agrees':>8}"
        print(header)
        print("-" * len(header))
        for row in report["models"]:
            cells = "".join(
                f"{row['providers'][p_]['latency_ms']:>14.3f}"
                for p_ in report["providers"]
            )
            print(f"{row['model']:<26}{cells}"
                  f"{'yes' if row['ordering_ok'] else 'NO':>9}"
                  f"{'yes' if row['agreement_ok'] else 'NO':>8}")
        int8 = report["int8"]
        print(f"int8 {int8['model']}: {len(int8['quantized_layers'])} "
              f"quantized layers on trt, {int8['num_transfers']} "
              f"transfers ({int8['transfer_bytes']} bytes), "
              f"{int8['latency_ms']:.3f} ms")
        checks = report["checks"]
        print("checks: " + ", ".join(
            f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()
        ))
    if args.check and not all(report["checks"].values()):
        failed = [k for k, v in report["checks"].items() if not v]
        print(f"provider gate FAILED: {', '.join(failed)}")
        return 1
    return 0


def _cmd_fleet(args) -> int:
    """Fault-tolerant fleet serving: seeded traffic over a simulated
    NX/AGX cluster, with or without injected device failures."""
    import json as _json

    from repro.analysis.engines import EngineFarm
    from repro.analysis.fleet import (
        build_fleet,
        compare_policies,
        compare_resilience,
        default_traffic,
        run_fleet,
    )
    from repro.faults import canned_fleet_plan

    plan = (
        canned_fleet_plan(args.scenario, seed=args.seed)
        if args.scenario and args.scenario != "none"
        else None
    )
    if args.store:
        from repro.engine.store import EngineStore

        farm = EngineFarm(
            pretrained=False, store=EngineStore(args.store),
            provider=args.providers,
        )
    else:
        import tempfile

        from repro.engine.store import EngineStore

        farm = EngineFarm(
            pretrained=False,
            store=EngineStore(
                tempfile.mkdtemp(prefix="trtsim-fleet-")
            ),
            provider=args.providers,
        )
    models = tuple(args.model.split(","))
    fallbacks = tuple(args.fallback or ())

    if args.policies:
        sweep = compare_policies(
            spec=args.devices, models=models, fallbacks=fallbacks,
            plan=plan, duration_s=args.duration_s,
            utilization=args.utilization, seed=args.seed, farm=farm,
            clock_mhz=args.clock_mhz,
        )
        doc, text = sweep.to_json(), sweep.table()
    elif args.compare:
        comparison = compare_resilience(
            spec=args.devices, models=models, fallbacks=fallbacks,
            plan=plan, policy=args.policy,
            duration_s=args.duration_s,
            utilization=args.utilization, seed=args.seed, farm=farm,
            clock_mhz=args.clock_mhz,
        )
        doc, text = comparison.to_json(), comparison.slo_table()
        if args.min_gain is not None:
            text += (
                f"\n\ngate: hit-rate gain "
                f"{comparison.hit_rate_gain:.2f} vs required "
                f">= {args.min_gain:.2f}"
            )
    else:
        fleet = build_fleet(
            args.devices, models, fallbacks, farm=farm,
            seed=args.seed, clock_mhz=args.clock_mhz,
        )
        traffic = default_traffic(
            fleet, duration_s=args.duration_s,
            utilization=args.utilization, seed=args.seed,
        )
        report = run_fleet(
            fleet, traffic, plan=plan, policy=args.policy,
            resilient=not args.no_resilience,
        )
        doc = report.to_json()
        text = (
            f"fleet {args.devices} policy={report.policy} "
            f"scenario={report.scenario} "
            f"resilient={report.resilient}\n"
            f"requests {report.requests}, attainment "
            f"{report.attainment:.3f}, served {report.served}, "
            f"failed {report.failed}, shed {report.shed}\n"
            f"p50/p99 latency {report.p50_latency_ms:.2f}/"
            f"{report.p99_latency_ms:.2f} ms, hedges "
            f"{report.hedges} ({report.hedge_cancels} cancelled), "
            f"redispatches {report.redispatches}\n"
            f"failovers {report.failovers} "
            f"({report.warm_failovers} warm), device-seconds "
            f"{report.device_seconds:.2f}"
        )
        if args.events and report.event_log:
            text += "\n\nevent log:\n" + "\n".join(report.event_log)

    if args.report:
        with open(args.report, "w") as fh:
            fh.write(doc + "\n")
    if args.json:
        print(doc)
    else:
        print(text)
    if args.compare and args.min_gain is not None:
        if comparison.hit_rate_gain < args.min_gain:
            return 1
    return 0


def _cmd_colocate(args) -> int:
    """Multi-model co-location: interference matrix, pair ranking,
    and the interference-aware placement advisor."""
    from repro.analysis.engines import EngineFarm
    from repro.analysis.interference import (
        DEFAULT_MATRIX_MODELS,
        interference_matrix,
    )

    farm = EngineFarm(pretrained=False)
    models = tuple(
        args.models.split(",") if args.models else DEFAULT_MATRIX_MODELS
    )

    if args.colocate_command == "advisor":
        from repro.analysis.fleet import compare_placement

        comparison = compare_placement(
            spec=args.devices, models=models, policy=args.policy,
            duration_s=args.duration_s, utilization=args.utilization,
            deadline_slack=args.deadline_slack, seed=args.seed,
            farm=farm, clock_mhz=args.clock_mhz,
        )
        doc, text = comparison.to_json(), comparison.table()
        if args.min_gain is not None:
            text += (
                f"\n\ngate: attainment gain "
                f"{comparison.attainment_gain:.3f} vs required "
                f">= {args.min_gain:.3f}"
            )
    else:
        report = interference_matrix(
            models, device_name=args.device, farm=farm,
            mode=args.mode, clock_mhz=args.clock_mhz, seed=args.seed,
            kappa=args.kappa,
        )
        doc = report.to_json()
        if args.colocate_command == "pairings":
            lines = [
                f"{a} + {b}: {cost:.3f}"
                for a, b, cost in report.pairings()
            ]
            best, worst = report.best_pair, report.worst_pair
            lines.append(
                f"best {best[0]}+{best[1]} ({best[2]:.3f}), "
                f"worst {worst[0]}+{worst[1]} ({worst[2]:.3f})"
            )
            text = "\n".join(lines)
        else:
            bounds = ", ".join(
                f"{p.name}={p.bound}" for p in report.models
            )
            text = report.table() + "\n" + bounds

    if args.report:
        with open(args.report, "w") as fh:
            fh.write(doc + "\n")
    if args.json:
        print(doc)
    else:
        print(text)
    if args.colocate_command == "advisor" and args.min_gain is not None:
        if comparison.attainment_gain < args.min_gain:
            return 1
    return 0


def _zoo_model(name: str) -> str:
    """``type=`` for a zoo model name: unknown names are usage errors."""
    from repro.models import MODEL_REGISTRY

    if name not in MODEL_REGISTRY:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise argparse.ArgumentTypeError(
            f"unknown model {name!r} (known: {known})"
        )
    return name


def _zoo_models(names: str) -> str:
    """``type=`` for a comma-separated list of zoo model names."""
    for name in names.split(","):
        _zoo_model(name)
    return names


def _lint_target(target: str) -> str:
    """``type=`` for ``lint``: a ``.plan`` path, an existing file, or a
    zoo model name."""
    from pathlib import Path

    path = Path(target)
    if path.suffix == ".plan" or path.is_file():
        return target
    return _zoo_model(target)


def _provider_spec(spec: str) -> str:
    """``type=`` for a provider priority list (kept as written)."""
    from repro.runtime.providers import ProviderError, resolve_providers

    try:
        resolve_providers(spec)
    except ProviderError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return spec


def _fault_plan_name(name: str) -> str:
    """``type=`` for a canned fault plan name (``faults``/``metrics``)."""
    from repro.faults import CANNED_PLANS

    if name not in CANNED_PLANS:
        known = ", ".join(sorted(CANNED_PLANS))
        raise argparse.ArgumentTypeError(
            f"unknown canned fault plan {name!r} (known: {known})"
        )
    return name


def _fleet_plan_name(name: str) -> str:
    """``type=`` for a canned fleet fault plan name, or ``none``."""
    from repro.faults import FLEET_PLANS

    if name != "none" and name not in FLEET_PLANS:
        known = ", ".join(["none"] + sorted(FLEET_PLANS))
        raise argparse.ArgumentTypeError(
            f"unknown canned fleet plan {name!r} (known: {known})"
        )
    return name


def _fault_plan_file(path: str):
    """``type=`` for a JSON fault-plan file: loaded at parse time, so
    an unreadable or malformed file is a usage error (argparse reports
    the ``TypeError`` of a mistyped field itself)."""
    from repro.faults import FaultPlan

    try:
        return FaultPlan.load(path)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _finite_positive(text: str) -> float:
    """``type=`` for a finite float > 0 (a deadline)."""
    import math

    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trtsim",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _provider_arg(sp, flag="--provider"):
        sp.add_argument(
            flag, default="trt", type=_provider_spec,
            help='execution provider priority: "trt", "cuda", "cpu", '
            '"auto", or a comma list like "cuda,trt" '
            "(case-insensitive)",
        )

    sub.add_parser("devices", help="print platform specs (Table I)")
    sub.add_parser("models", help="list the model zoo (Table II)")

    p = sub.add_parser("build", help="build an engine")
    p.add_argument("model", type=_zoo_model)
    p.add_argument(
        "--device", default="NX", type=str.upper, choices=["NX", "AGX"],
        help="target device (case-insensitive)",
    )
    p.add_argument(
        "--precision", default="fp16",
        choices=["fp32", "fp16", "int8", "best"],
    )
    _provider_arg(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-pretrain", action="store_true")
    p.add_argument("-o", "--output", default=None, help=".plan file")
    p.add_argument(
        "--store", default=None, metavar="DIR",
        help="route the build through a persistent EngineStore at DIR",
    )

    p = sub.add_parser(
        "store",
        help="persistent engine store: content-addressed plans + "
        "sidecar timing caches",
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)

    def _store_common(sp, with_build_args=True):
        sp.add_argument(
            "--store", default=".trtsim-store", metavar="DIR",
            help="store root directory (default .trtsim-store)",
        )
        if with_build_args:
            sp.add_argument(
                "--device", default="NX", type=str.upper,
                choices=["NX", "AGX"],
                help="target device (case-insensitive)",
            )
            sp.add_argument(
                "--precision", default="fp16",
                choices=["fp32", "fp16", "int8", "best"],
            )
            sp.add_argument("--seed", type=int, default=None)
            sp.add_argument("--no-pretrain", action="store_true")
            _provider_arg(sp)

    sp = store_sub.add_parser(
        "build", help="build one model through the store"
    )
    sp.add_argument("model", type=_zoo_model)
    _store_common(sp)
    sp.add_argument("--json", action="store_true")

    sp = store_sub.add_parser("ls", help="list committed entries")
    _store_common(sp, with_build_args=False)
    sp.add_argument("--json", action="store_true")

    sp = store_sub.add_parser(
        "gc", help="evict least-recently-used entries over budget"
    )
    _store_common(sp, with_build_args=False)
    sp.add_argument(
        "--max-mb", type=float, default=None,
        help="keep at most this many MB of artifacts",
    )
    sp.add_argument(
        "--max-entries", type=int, default=None,
        help="keep at most this many entries",
    )

    sp = store_sub.add_parser(
        "warm", help="pre-build models into the store"
    )
    _store_common(sp)
    sp.add_argument(
        "--models", default=None, type=_zoo_models,
        help="comma-separated zoo names (default: the whole zoo)",
    )

    sp = store_sub.add_parser(
        "stats", help="hit/miss/evict counters + layout (JSON)"
    )
    _store_common(sp, with_build_args=False)

    p = sub.add_parser("run", help="measure inference latency")
    p.add_argument("model", type=_zoo_model)
    p.add_argument(
        "--device", default="NX", type=str.upper, choices=["NX", "AGX"],
        help="target device (case-insensitive)",
    )
    p.add_argument(
        "--compile-device", default=None, type=str.upper,
        choices=["NX", "AGX"],
        help="build platform (defaults to --device)",
    )
    _provider_arg(p)
    p.add_argument("--slot", type=int, default=0, help="engine slot index")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument(
        "--clock-mhz", type=float, default=None,
        help="pinned GPU clock (default: the paper's measurement clock)",
    )
    p.add_argument(
        "--batch-size", type=int, default=1,
        help="micro-batch size per inference",
    )
    p.add_argument("--nvprof", action="store_true")
    p.add_argument("--no-memcpy", action="store_true")

    p = sub.add_parser("profile", help="nvprof-style kernel profile")
    p.add_argument("model", type=_zoo_model)
    p.add_argument(
        "--device", default="NX", type=str.upper, choices=["NX", "AGX"],
        help="target device (case-insensitive)",
    )
    p.add_argument("--mode", default="summary",
                   choices=["summary", "gpu-trace"])
    p.add_argument("--runs", type=int, default=3)

    p = sub.add_parser("concurrency", help="thread sweep (Figs 3/4)")
    p.add_argument("model", type=_zoo_model)
    p.add_argument(
        "--device", default="NX", type=str.upper, choices=["NX", "AGX"],
        help="target device (case-insensitive)",
    )
    p.add_argument(
        "--batch-size", "--batch", dest="batch_size", type=int, default=1,
        help="micro-batch size per stream (streams x batch grid)",
    )
    p.add_argument(
        "--clock-mhz", type=float, default=None,
        help="pinned GPU clock (default: device max)",
    )

    p = sub.add_parser("accuracy", help="benign accuracy (Table III)")
    p.add_argument(
        "--models", default=None, type=_zoo_models,
        help="comma-separated names",
    )

    p = sub.add_parser(
        "batch-sweep",
        help="micro-batch ladder: latency/FPS/FPS-per-W vs batch size",
    )
    p.add_argument("model", type=_zoo_model)
    p.add_argument(
        "--device", default="NX", type=str.upper, choices=["NX", "AGX"],
        help="target device (case-insensitive)",
    )
    p.add_argument(
        "--batches", default=None,
        help="comma-separated batch sizes (default 1,2,4,8,16,32)",
    )
    p.add_argument(
        "--clock-mhz", type=float, default=None,
        help="pinned GPU clock (default: device max)",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a batch-annotated chrome://tracing JSON",
    )

    p = sub.add_parser(
        "exec", help="trtexec-style build+run+profile in one shot"
    )
    p.add_argument("model", type=_zoo_model)
    p.add_argument(
        "--device", default="NX", type=str.upper, choices=["NX", "AGX"],
        help="target device (case-insensitive)",
    )
    p.add_argument("--runs", type=int, default=10)

    p = sub.add_parser("clocks", help="DVFS ladder sweep (extension)")
    p.add_argument("model", type=_zoo_model)
    p.add_argument(
        "--device", default="NX", type=str.upper, choices=["NX", "AGX"],
        help="target device (case-insensitive)",
    )

    p = sub.add_parser(
        "warmup", help="pre-build the pretrained model-zoo cache"
    )
    p.add_argument(
        "--models", default=None, type=_zoo_models,
        help="comma-separated names",
    )

    p = sub.add_parser("inspect", help="per-layer engine report")
    p.add_argument("model", type=_zoo_model)
    p.add_argument(
        "--device", default="NX", type=str.upper, choices=["NX", "AGX"],
        help="target device (case-insensitive)",
    )
    _provider_arg(p)
    p.add_argument("--slot", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "lint", help="static verifier: lint a model's graph+engine "
        "or a .plan file"
    )
    p.add_argument(
        "target", type=_lint_target,
        help="zoo model name, or path to a .plan file",
    )
    p.add_argument(
        "--device", default="NX", type=str.upper, choices=["NX", "AGX"],
        help="target device (case-insensitive)",
    )
    p.add_argument(
        "--precision", default="fp16",
        choices=["fp32", "fp16", "int8", "best"],
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--strict", action="store_true",
        help="fail on warnings too, not just errors",
    )
    p.add_argument(
        "--select", default=None,
        help="comma-separated rule-id prefixes to run (e.g. G,Q001)",
    )
    p.add_argument(
        "--ignore", default=None,
        help="comma-separated rule-id prefixes to skip",
    )

    p = sub.add_parser(
        "analyze",
        help="whole-program analysis: dataflow-check zoo engines and "
        "race-check the serving-stack sources",
    )
    p.add_argument(
        "models", nargs="*", type=_zoo_model,
        help="zoo model names to analyze (default with no targets: "
        "full sweep — whole zoo plus --races)",
    )
    p.add_argument(
        "--zoo", action="store_true",
        help="analyze every zoo model",
    )
    p.add_argument(
        "--precision", default="fp32,fp16,int8",
        help="comma-separated precision modes to build and check",
    )
    p.add_argument(
        "--device", default="NX", type=str.upper, choices=["NX", "AGX"],
        help="target device (case-insensitive)",
    )
    p.add_argument(
        "--batch", type=int, default=1,
        help="batch size for the activation-liveness memory bound",
    )
    p.add_argument(
        "--races", nargs="?", const="", default=None, metavar="PATH",
        help="also race-check Python sources (default: the installed "
        "repro package)",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--sarif", default=None, metavar="FILE",
        help="write a SARIF 2.1.0 document for code-scanning UIs",
    )
    p.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="suppress findings fingerprinted in this baseline file",
    )
    p.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline to accept exactly the current findings",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="fail on warnings too, not just errors",
    )
    p.add_argument(
        "--select", default=None,
        help="comma-separated rule-id prefixes to run (e.g. D,R004)",
    )
    p.add_argument(
        "--ignore", default=None,
        help="comma-separated rule-id prefixes to skip",
    )

    p = sub.add_parser(
        "faults",
        help="fault-injection campaign: supervised vs unsupervised SLOs",
    )
    p.add_argument("model", type=_zoo_model)
    p.add_argument(
        "--device", default="NX", type=str.upper, choices=["NX", "AGX"],
        help="target device (case-insensitive)",
    )
    p.add_argument(
        "--app", default="traffic", choices=["traffic", "adas"],
        help="workload: intersection cameras or the ADAS frame loop",
    )
    p.add_argument(
        "--scenario", default="thermal_oom", type=_fault_plan_name,
        help="canned fault plan name (see repro.faults.CANNED_PLANS)",
    )
    p.add_argument(
        "--scenario-file", default=None, type=_fault_plan_file,
        help="JSON FaultPlan file (overrides --scenario)",
    )
    p.add_argument("--frames", type=int, default=60)
    p.add_argument(
        "--seed", type=int, default=None, help="fault plan seed"
    )
    p.add_argument(
        "--workload-seed", type=int, default=0,
        help="request/input stream seed",
    )
    p.add_argument(
        "--deadline-ms", type=_finite_positive, default=None,
        help="per-request SLO (default: app-specific)",
    )
    p.add_argument(
        "--fallback", action="append", default=None, metavar="MODEL",
        type=_zoo_model,
        help="fallback-ladder engine (repeatable, cheapest last)",
    )
    p.add_argument(
        "--events", action="store_true",
        help="print the typed fault-event log",
    )
    p.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a fault-annotated chrome://tracing JSON",
    )

    p = sub.add_parser(
        "fleet",
        help="fault-tolerant fleet serving: routed traffic over a "
        "simulated NX/AGX cluster under injected device failures",
    )
    p.add_argument(
        "--devices", default="4xNX+2xAGX",
        help="fleet spec, e.g. 4xNX+2xAGX",
    )
    p.add_argument(
        "--model", default="resnet18", type=_zoo_models,
        help="comma-separated served model(s)",
    )
    _provider_arg(p, flag="--providers")
    p.add_argument(
        "--fallback", action="append", default=None, metavar="MODEL",
        type=_zoo_model,
        help="fallback-ladder engine per model (repeatable, "
        "cheapest last) — arms the precision-drop degradation rung",
    )
    p.add_argument(
        "--policy", default="least-loaded",
        choices=[
            "round-robin", "least-loaded", "latency-aware",
            "engine-affinity",
        ],
    )
    p.add_argument(
        "--scenario", default="none", type=_fleet_plan_name,
        help="canned fleet fault plan "
        "(see repro.faults.FLEET_PLANS; 'none' disables)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration-s", type=float, default=4.0)
    p.add_argument(
        "--utilization", type=float, default=0.6,
        help="offered load as a fraction of fleet capacity",
    )
    p.add_argument(
        "--clock-mhz", type=float, default=None,
        help="pinned GPU clock on every device (default: device max)",
    )
    p.add_argument(
        "--store", default=None, metavar="DIR",
        help="engine-store root shared by the fleet (default: a "
        "scratch store; warm failover restores ladders from it)",
    )
    p.add_argument(
        "--compare", action="store_true",
        help="resilient vs blind fleet over identical traffic+faults",
    )
    p.add_argument(
        "--policies", action="store_true",
        help="sweep all routing policies over the identical scenario",
    )
    p.add_argument(
        "--no-resilience", action="store_true",
        help="single run with the blind baseline router",
    )
    p.add_argument(
        "--min-gain", type=float, default=None,
        help="with --compare: exit 1 unless hit-rate gain >= this",
    )
    p.add_argument(
        "--events", action="store_true",
        help="print the deterministic fleet event log",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the full report/comparison JSON",
    )

    p = sub.add_parser(
        "colocate",
        help="concurrent multi-model co-location: NxN interference "
        "matrix, pair ranking, placement advisor vs round-robin",
    )
    coloc_sub = p.add_subparsers(dest="colocate_command", required=True)

    def _coloc_common(sp):
        sp.add_argument(
            "--models", default=None, type=_zoo_models,
            help="comma-separated zoo names (default: alexnet,"
            "googlenet,mobilenet_v1,mtcnn)",
        )
        sp.add_argument(
            "--clock-mhz", type=float, default=None,
            help="pinned GPU clock (default: device max)",
        )
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--json", action="store_true")
        sp.add_argument(
            "--report", default=None, metavar="FILE",
            help="write the full JSON report",
        )

    def _matrix_args(sp):
        _coloc_common(sp)
        sp.add_argument(
            "--device", default="NX", type=str.upper,
            choices=["NX", "AGX"],
            help="target device (case-insensitive)",
        )
        sp.add_argument(
            "--mode", default="sm-partition",
            choices=["sm-partition", "time-slice"],
            help="GPU sharing discipline for the pair probes",
        )
        sp.add_argument(
            "--kappa", type=float, default=1.0,
            help="DRAM contention sensitivity (sm-partition mode)",
        )

    sp = coloc_sub.add_parser(
        "matrix",
        help="NxN slowdown matrix across co-located model pairs "
        "(trtsim.interference/1)",
    )
    _matrix_args(sp)

    sp = coloc_sub.add_parser(
        "pairings",
        help="unordered pairs ranked by mutual slowdown, best first",
    )
    _matrix_args(sp)

    sp = coloc_sub.add_parser(
        "advisor",
        help="interference-aware placement vs round-robin over "
        "identical fleet traffic (trtsim.placement_compare/1)",
    )
    _coloc_common(sp)
    sp.add_argument(
        "--devices", default="2xNX",
        help="fleet spec, e.g. 2xNX or 4xNX+2xAGX",
    )
    sp.add_argument(
        "--policy", default="least-loaded",
        choices=[
            "round-robin", "least-loaded", "latency-aware",
            "engine-affinity",
        ],
    )
    sp.add_argument("--duration-s", type=float, default=4.0)
    sp.add_argument(
        "--utilization", type=float, default=0.95,
        help="offered load as a fraction of the bottleneck capacity",
    )
    sp.add_argument(
        "--deadline-slack", type=float, default=4.0,
        help="deadline as a multiple of the slowest base latency",
    )
    sp.add_argument(
        "--min-gain", type=float, default=None,
        help="exit 1 unless attainment gain >= this",
    )

    p = sub.add_parser(
        "bench",
        help="hot-path micro-benchmarks (trtsim.bench/1 JSON, "
        "--check gates against a committed baseline)",
    )
    p.add_argument("--json", action="store_true", help="print the document")
    p.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write the bench document (e.g. BENCH_<sha>.json)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="gate against --baseline; non-zero exit on regression",
    )
    p.add_argument(
        "--baseline", default="benchmarks/BASELINE_BENCH.json",
        help="committed baseline document for --check",
    )
    p.add_argument(
        "--tier1-seconds", type=float, default=None,
        help="externally measured Tier-1 suite wall clock to gate "
        "(normalized by the calibration loop)",
    )
    p.add_argument(
        "--tolerance", type=float, default=None,
        help="wall-clock regression tolerance (default 0.20)",
    )
    p.add_argument(
        "--quick", action="store_true", help="fewer reps / fewer models"
    )

    p = sub.add_parser(
        "providers",
        help="execution providers: list, or compare latency + numerics "
        "across the zoo (trtsim.provider_compare/1)",
    )
    prov_sub = p.add_subparsers(dest="providers_command", required=True)
    sp = prov_sub.add_parser("ls", help="list the registered providers")
    sp = prov_sub.add_parser(
        "compare",
        help="per-provider latency + output agreement across the zoo",
    )
    sp.add_argument(
        "--models", default=None, type=_zoo_models,
        help="comma-separated zoo names (default: alexnet,googlenet,"
        "resnet18)",
    )
    sp.add_argument(
        "--device", default="NX", type=str.upper, choices=["NX", "AGX"],
        help="target device (case-insensitive)",
    )
    sp.add_argument("--seed", type=int, default=3)
    sp.add_argument(
        "--int8-model", default=None, type=_zoo_model,
        help="model for the mixed cuda,trt INT8 partition check",
    )
    sp.add_argument(
        "--check", action="store_true",
        help="exit 1 unless ordering/agreement/int8 gates all pass",
    )
    sp.add_argument("-o", "--output", default=None, metavar="FILE",
                    help="write the JSON report to FILE")
    sp.add_argument("--json", action="store_true")

    p = sub.add_parser("trace", help="export a chrome://tracing timeline")
    p.add_argument("model", type=_zoo_model)
    p.add_argument(
        "--device", default="NX", type=str.upper, choices=["NX", "AGX"],
        help="target device (case-insensitive)",
    )
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--unified", action="store_true",
        help="render from the telemetry bus: a supervised serving run "
        "with request/batch/fault tracks next to the kernel rows",
    )
    p.add_argument("-o", "--output", default="trace.json")

    p = sub.add_parser(
        "metrics",
        help="unified telemetry of a short serving run "
        "(Prometheus text, --json, --jsonl FILE)",
    )
    p.add_argument("model", type=_zoo_model)
    p.add_argument(
        "--device", default="NX", type=str.upper, choices=["NX", "AGX"],
        help="target device (case-insensitive)",
    )
    p.add_argument("--frames", type=int, default=12)
    p.add_argument("--streams", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deadline-ms", type=_finite_positive, default=33.0)
    p.add_argument(
        "--scenario", default=None, type=_fault_plan_name,
        help="optional canned fault plan to serve under "
        "(see repro.faults.CANNED_PLANS)",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--jsonl", default=None, metavar="FILE",
        help="write the per-event JSONL telemetry snapshot",
    )

    return parser


def _cmd_bench(args) -> int:
    """Hot-path micro-benchmarks plus optional baseline gating."""
    import json
    import os
    from pathlib import Path

    from repro.analysis.bench import (
        DEFAULT_TOLERANCE,
        check_against_baseline,
        load_baseline,
        run_benchmarks,
    )

    result = run_benchmarks(quick=args.quick)
    if args.tier1_seconds is not None:
        result["tier1_wall_seconds"] = args.tier1_seconds

    check = None
    if args.check:
        baseline = load_baseline(args.baseline)
        tolerance = args.tolerance
        if tolerance is None:
            tolerance = float(
                os.environ.get("REPRO_BENCH_TOLERANCE", DEFAULT_TOLERANCE)
            )
        # Gating first: it annotates the document (sweep_speedup_vs_seed)
        # before the artifact is written.
        check = check_against_baseline(
            result,
            baseline,
            tier1_seconds=args.tier1_seconds,
            tolerance=tolerance,
        )

    doc = json.dumps(result, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(doc + "\n", encoding="utf-8")
    if args.json or not (args.output or args.check):
        print(doc)

    if check is None:
        return 0
    print(check.format_text())
    return 0 if check.ok else 1


_HANDLERS = {
    "devices": _cmd_devices,
    "models": _cmd_models,
    "build": _cmd_build,
    "run": _cmd_run,
    "profile": _cmd_profile,
    "concurrency": _cmd_concurrency,
    "accuracy": _cmd_accuracy,
    "batch-sweep": _cmd_batch_sweep,
    "exec": _cmd_exec,
    "clocks": _cmd_clocks,
    "warmup": _cmd_warmup,
    "inspect": _cmd_inspect,
    "lint": _cmd_lint,
    "analyze": _cmd_analyze,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
    "faults": _cmd_faults,
    "fleet": _cmd_fleet,
    "colocate": _cmd_colocate,
    "providers": _cmd_providers,
    "metrics": _cmd_metrics,
    "store": _cmd_store,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run" and args.compile_device is None:
        args.compile_device = args.device
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:  # output piped into head/less and closed
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
