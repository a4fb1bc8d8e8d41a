"""Shared fixtures for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper and
prints it in the paper's format.  Scale defaults are laptop-feasible;
set ``REPRO_FULL=1`` for the paper's full image counts.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.analysis.engines import EngineFarm
from repro.data.synthetic import SyntheticImageNet


@pytest.fixture(scope="session")
def farm() -> EngineFarm:
    """Structure-only farm for performance benchmarks (fast builds)."""
    return EngineFarm(pretrained=False)


@pytest.fixture(scope="session")
def trained_farm() -> EngineFarm:
    """Pretrained farm for accuracy/consistency benchmarks (uses the
    on-disk zoo cache; first run pays the pretraining cost once)."""
    return EngineFarm(pretrained=True)


@pytest.fixture(scope="session")
def dataset() -> SyntheticImageNet:
    return SyntheticImageNet()


_consistency_memo = {}


def shared_consistency_reports(trained_farm, dataset, models):
    """Compute (once per session) the consistency reports shared by the
    Table V and Table VI benchmarks — both compare the same engine
    predictions, so the expensive evaluation is memoized."""
    import os

    from repro.analysis.consistency import (
        consistency_eval_images,
        consistency_report,
    )

    key = tuple(models)
    if key not in _consistency_memo:
        images = consistency_eval_images(dataset)
        reports = {}
        for model in models:
            subset = images
            if model == "inception_v4" and not os.environ.get("REPRO_FULL"):
                subset = images[:600]
            reports[model] = consistency_report(model, trained_farm, subset)
        _consistency_memo[key] = reports
    return _consistency_memo[key]


def print_table(title: str, header: str, rows) -> None:
    """Uniform table rendering across benchmarks."""
    bar = "=" * max(len(header), len(title))
    print(f"\n{bar}\n{title}\n{bar}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(row)
