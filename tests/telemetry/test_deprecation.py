"""Legacy entry points keep working but warn exactly once."""

from __future__ import annotations

import warnings

import pytest

from repro.engine import BuilderConfig, EngineBuilder
from repro.hardware.specs import XAVIER_NX
from repro.profiling.chrome_trace import save_chrome_trace, to_chrome_trace


@pytest.fixture(scope="module")
def engine():
    from tests.conftest import make_small_cnn

    return EngineBuilder(XAVIER_NX, BuilderConfig(seed=19)).build(
        make_small_cnn()
    )


@pytest.fixture()
def timing(engine):
    return engine.create_execution_context().time_inference(jitter=0.0)


def _deprecations(record):
    return [
        w for w in record if issubclass(w.category, DeprecationWarning)
    ]


class TestWarnOnce:
    def test_to_chrome_trace_warns_exactly_once(self, timing):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            doc1 = to_chrome_trace(timing)
            doc2 = to_chrome_trace(timing)
        assert len(_deprecations(record)) == 1
        assert "deprecated" in str(_deprecations(record)[0].message)
        assert doc1["traceEvents"] and doc2["traceEvents"]

    def test_save_chrome_trace_warns_exactly_once(self, timing, tmp_path):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            save_chrome_trace([timing], tmp_path / "a.json")
            save_chrome_trace([timing], tmp_path / "b.json")
        assert len(_deprecations(record)) == 1
        assert (tmp_path / "a.json").exists()
        assert (tmp_path / "b.json").exists()

    def test_shims_warn_independently(self, timing, tmp_path):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            to_chrome_trace(timing)
            save_chrome_trace([timing], tmp_path / "c.json")
        assert len(_deprecations(record)) == 2


class TestLegacyImportsStillResolve:
    def test_profiling_namespace(self):
        from repro.profiling import (  # noqa: F401
            ChromeTrace,
            KernelStats,
            Nvprof,
            Tegrastats,
            TegrastatsSample,
            save_chrome_trace,
            to_chrome_trace,
        )

    def test_chrome_trace_module_path(self):
        import repro.profiling.chrome_trace as mod

        assert callable(mod.to_chrome_trace)
        assert callable(mod.save_chrome_trace)
