"""Benchmark runner: one hermetic child interpreter per workload run.

For an untraced run of one workload the runner starts ``SETUPS``
children one after another.  The first sets up, runs the warm-up rep
and the timed reps; the others only set up, so ``setup_s`` is a median
over several set-ups.  A traced run starts one child that times
untraced and traced reps back to back.

Every child gets a hermetic environment (:func:`hermetic_env`) and a
fresh scratch directory under ``bench/out/tmp`` that is removed when
the child ends.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench.tracing import PER_LAYER_METRICS
from bench.workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
EXPECTED_DIGESTS = ROOT / "bench" / "expected_digests.json"

DEFAULT_SECONDS = 10.0
#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUPS = 3
#: Wall-clock budget of one workload run, children included.
RUN_DEADLINE_S = 170.0

#: End-to-end metrics: (name, unit, better, regression bound).  The
#: bounds sit above the spread that host noise alone gives ten runs of
#: one commit on a shared 2-core box (bench/README.md, "Stability").
END_TO_END = (
    ("throughput_ops_s", "ops/s", "higher", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)


class BenchError(RuntimeError):
    """A child failed or the run could not complete."""


def hermetic_env(scratch: Path) -> Dict[str, str]:
    """The environment of every child.

    * ``PYTHONHASHSEED=0``: engine slot seeds and the Table VIII
      measurement seeds hash model names, so paper-table outputs (and
      the committed digests) would otherwise change per process.
    * ``REPRO_ZOO_CACHE`` and ``TMPDIR`` point into a fresh scratch
      directory: the zoo cache would otherwise come from the user's
      home directory and make ``setup_s`` and ``frameworks.*`` depend
      on what an earlier run left there; engine stores and plan files
      are created under ``TMPDIR``.
    * One BLAS/OpenMP thread: children stay single-threaded, so one
      child never contends with itself for the cores.
    * No bytecode files are written into the checkout.
    """
    env = dict(os.environ)
    env.pop("REPRO_FULL", None)
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH="src",
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_ZOO_CACHE=str(scratch / "zoo"),
        TMPDIR=str(scratch / "tmp"),
    )
    return env


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    deadline: float,
    setup_only: bool = False,
    trace_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run one child to completion and return its JSON report."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT / "tmp"))
    try:
        started = time.monotonic()
        cmd = [
            sys.executable, "-m", "bench.child", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--started", repr(started),
        ]
        if setup_only:
            cmd.append("--setup-only")
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"{workload}: no time left for another child")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=hermetic_env(scratch),
                stdout=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: child timed out") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(
                f"{workload}: child exited with code {proc.returncode}"
            )
        return json.loads(lines[-1])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def reference_digest(
    workload: str, seed: int, main: Dict[str, Any], expected: Dict[str, Any]
) -> str:
    """The committed digest for the committed seed, else the warm-up
    rep's: every timed rep must reproduce it."""
    if seed == expected.get("seed"):
        committed = expected.get("digests", {}).get(workload)
        if committed:
            return committed
    return main["warmup_digest"]


def _quartile_spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(
    workload: str,
    seed: int,
    main: Dict[str, Any],
    setups: List[Dict[str, Any]],
    expected: Dict[str, Any],
) -> Dict[str, Any]:
    """Score one run: correctness, attempted/failed ops, metrics.

    An op fails when its rep raised or its rep's digest differs from
    :func:`reference_digest`; either fails every op of the rep.
    """
    reference = reference_digest(workload, seed, main, expected)
    ops = int(main["ops_per_rep"])
    traced = "traced_reps" in main
    checked = main["reps"] + main.get("traced_reps", [])
    bad = sum(1 for rep in checked if rep["digest"] != reference)
    rep_s = [rep["seconds"] for rep in main["reps"]]
    metrics: Dict[str, Dict[str, Any]] = {}
    if traced:
        traced_s = [rep["seconds"] for rep in main["traced_reps"]]
        values = dict(main["layers"])
        values["trace.overhead_frac"] = (
            statistics.median(traced_s) / statistics.median(rep_s) - 1.0
        )
        for name, unit, _better in PER_LAYER_METRICS:
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        ready = [child["ready_s"] for child in setups]
        values = {
            "throughput_ops_s": ops / statistics.median(rep_s),
            "setup_s": statistics.median(ready) + main["warmup_s"],
            "peak_rss_mb": main["peak_rss_mb"],
        }
        for name, unit, _better, _bound in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    return {
        "correct": bad == 0,
        "attempted": ops * len(checked),
        "failed": ops * bad,
        "metrics": metrics,
        "details": {
            "workload": workload,
            "seed": seed,
            "traced": traced,
            "ops_per_rep": ops,
            "reps": len(rep_s),
            "rep_s": rep_s,
            "throughput_iqr_ops_s": _quartile_spread(
                [ops / s for s in rep_s]
            ),
            "setup_ready_s": [child["ready_s"] for child in setups],
            "warmup_s": main["warmup_s"],
            "digest": main["reps"][0]["digest"],
            "reference_digest": reference,
        },
    }


def run_workload(
    workload: str,
    seed: int = DEFAULT_SEED,
    seconds: float = DEFAULT_SECONDS,
    trace: bool = False,
) -> Dict[str, Any]:
    """One benchmark run of ``workload`` (see the module docstring)."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program to benchmark under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    expected = load_expected()
    trace_out = OUT / f"trace-{workload}.json" if trace else None
    main = run_child(workload, seed, seconds, deadline, trace_out=trace_out)
    setups = [main]
    if not trace:
        setups += [
            run_child(workload, seed, seconds, deadline, setup_only=True)
            for _ in range(SETUPS - 1)
        ]
    return summarize(workload, seed, main, setups, expected)
