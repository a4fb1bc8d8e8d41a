"""Host-time benchmark of the simulator: five workloads, end-to-end and
per-layer metrics.  Run ``python -m bench run`` from the repo root; see
``bench/README.md``."""
