"""Command line: ``python -m bench run|record`` from the repo root.

``run`` benchmarks one workload (``--workload``) or all five, untraced
(end-to-end metrics) or with ``--trace`` (per-layer metrics).  The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people.  ``record`` runs every workload untraced and then traced and
writes one results document.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from importlib import metadata
from typing import Any, Dict, List, Optional

from bench.runner import (
    DEFAULT_SECONDS,
    BenchError,
    run_workload,
)
from bench.workloads import DEFAULT_SEED, WORKLOADS


def _describe(result: Dict[str, Any]) -> List[str]:
    d = result["details"]
    mode = "traced" if d["traced"] else "untraced"
    lines = [
        f"{d['workload']} seed={d['seed']} {mode}: {d['reps']} timed reps "
        f"of {d['ops_per_rep']} ops, correct={result['correct']} "
        f"({result['failed']}/{result['attempted']} ops failed)",
        f"  digest {d['digest']} (reference {d['reference_digest']})",
        "  untraced rep seconds: "
        + ", ".join(f"{s:.3f}" for s in d["rep_s"]),
    ]
    metrics = result["metrics"]
    if d["traced"]:
        top = [name for name, _ in _top_self_time(result, 5)]
        names = ["bench.unattributed_frac", "trace.overhead_frac", *top]
    else:
        names = list(metrics)
    for name in names:
        value, unit = metrics[name]["value"], metrics[name]["unit"]
        note = ""
        if name == "throughput_ops_s":
            note = (
                f"  (IQR {d['throughput_iqr_ops_s']:.6g} over "
                f"{d['reps']} reps)"
            )
        elif name == "setup_s":
            ready = ", ".join(f"{s:.3f}" for s in d["setup_ready_s"])
            note = f"  (ready after {ready} s; warm-up {d['warmup_s']:.3f} s)"
        lines.append(f"  {name:<32}{value:>14.6g} {unit}{note}")
    return lines


def run_all(
    workloads: List[str], seed: int, seconds: float, trace: bool
) -> Dict[str, Dict[str, Any]]:
    results = {}
    for name in workloads:
        results[name] = run_workload(name, seed, seconds, trace)
        print("\n".join(_describe(results[name])), flush=True)
    return results


def _combined(results: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """The result line; metrics are prefixed with the workload name
    when more than one workload ran."""
    if len(results) == 1:
        (only,) = results.values()
        return {k: only[k] for k in ("correct", "attempted", "failed",
                                       "metrics")}
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{wl}.{name}": metric
            for wl, r in results.items()
            for name, metric in r["metrics"].items()
        },
    }


def _top_self_time(result: Dict[str, Any], n: int = 3) -> List[List[Any]]:
    metrics = result["metrics"]
    names = sorted(
        (m for m in metrics if m.endswith(".self_s")),
        key=lambda m: -metrics[m]["value"],
    )
    return [[m, metrics[m]["value"]] for m in names[:n]]


def record(seed: int, seconds: float, output: str) -> Dict[str, Any]:
    workloads = list(WORKLOADS)
    untraced = run_all(workloads, seed, seconds, trace=False)
    traced = run_all(workloads, seed, seconds, trace=True)
    doc = {
        "schema": "bench.results/1",
        "seed": seed,
        "seconds": seconds,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "machine": platform.machine(),
        },
        "untraced": untraced,
        "traced": traced,
        "top_self_time": {
            name: _top_self_time(result) for name, result in traced.items()
        },
    }
    os.makedirs(os.path.dirname(os.path.abspath(output)), exist_ok=True)
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return _combined(untraced)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "benchmark one workload or all of them"),
        ("record", "run every workload untraced and traced; write a "
                   "results document"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    run = sub.choices["run"]
    run.add_argument(
        "--workload", choices=sorted(WORKLOADS), default=None,
        help="one workload (default: all, one after another)",
    )
    run.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="traced run: per-layer metrics instead of end-to-end ones",
    )
    sub.choices["record"].add_argument(
        "-o", "--output", required=True, metavar="FILE",
        help="results document to write, e.g. bench/results/BENCH_x.json",
    )
    args = parser.parse_args(argv)

    try:
        if args.command == "record":
            line = record(args.seed, args.seconds, args.output)
        else:
            workloads = [args.workload] if args.workload else list(WORKLOADS)
            line = _combined(
                run_all(workloads, args.seed, args.seconds, bool(args.trace))
            )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
