"""One benchmark child process.

The runner starts this module in a fresh, hermetic interpreter per
workload run (``python -m bench.child WORKLOAD ...``).  The child sets
the workload up, reports when it is ready, and unless ``--setup-only``
runs one untimed warm-up rep followed by timed reps for ``--seconds``.
With ``--trace`` half of the budget runs untraced and half under the
:class:`~bench.tracing.Tracer`.  The last line of stdout is a JSON
report; the runner turns it into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench.tracing import Tracer, layer_metrics
from bench.workloads import WORKLOADS


def timed_reps(
    run: Callable[[], Tuple[int, str]], budget_s: float
) -> List[Dict[str, Any]]:
    """Run reps until the next one would end past ``budget_s``.

    At least one rep runs.  A rep that raises is recorded with a
    ``None`` digest so the runner counts its ops as failed.
    """
    reps: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        digest: Optional[str]
        try:
            _ops, digest = run()
        except Exception:  # a failing op must not end the measurement
            traceback.print_exc(file=sys.stderr)
            digest = None
        reps.append({"seconds": time.perf_counter() - t0, "digest": digest})
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["seconds"] for r in reps)
        if elapsed + typical > budget_s:
            return reps


def measure(
    workload: Any, seconds: float, trace_out: Optional[str]
) -> Dict[str, Any]:
    """Warm-up rep, then timed reps (untraced, then traced if asked)."""
    t0 = time.perf_counter()
    ops, digest = workload.rep()
    report: Dict[str, Any] = {
        "warmup_s": time.perf_counter() - t0,
        "warmup_digest": digest,
        "ops_per_rep": ops,
    }
    budget = seconds / 2 if trace_out else seconds
    report["reps"] = timed_reps(workload.rep, budget)
    if trace_out:
        tracer = Tracer()

        def traced_rep() -> Tuple[int, str]:
            with tracer.rep():
                return workload.rep()

        with tracer.installed():
            report["traced_reps"] = timed_reps(traced_rep, budget)
        tracer.save_chrome_trace(trace_out)
        report["layers"] = layer_metrics(tracer)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--started", type=float, required=True,
        help="time.monotonic() of the parent just before the spawn",
    )
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="also run traced reps and write their Chrome trace here",
    )
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    report: Dict[str, Any] = {"ready_s": time.monotonic() - args.started}
    if not args.setup_only:
        report.update(measure(workload, args.seconds, args.trace_out))
    # ru_maxrss is in KiB on Linux.
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
