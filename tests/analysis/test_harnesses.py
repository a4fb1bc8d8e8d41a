"""Integration tests for the experiment harnesses.

These use the structure-only farm (cheap builds) and small image
subsets; the full paper-scale runs live in benchmarks/.
"""

import pytest

from repro.analysis.bsp import prediction_across_engines
from repro.analysis.concurrency import concurrency_sweep
from repro.analysis.config import current_scale
from repro.analysis.engines import device_by_name
from repro.analysis.latency import (
    LATENCY_MODELS,
    engine_variance,
    kernel_invocation_variance,
    latency_matrix,
    measure_case,
    memcpy_split,
    paper_clock_for,
)
from repro.analysis.report import (
    APPLICATION_IMPACTS,
    FINDINGS,
    application_impact_table,
    findings_table,
)
from repro.analysis.throughput import classification_throughput


class TestScaleConfig:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        scale = current_scale()
        assert scale.name == "default"
        assert scale.benign_total <= 1000

    def test_full_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        scale = current_scale()
        assert scale.name == "full"
        assert scale.benign_images_per_class == 50
        assert len(scale.adversarial_noises) == 15


class TestEngineFarm:
    def test_memoizes_engines(self, farm):
        a = farm.engine("alexnet", "NX", 0)
        b = farm.engine("alexnet", "NX", 0)
        assert a is b

    def test_slots_differ(self, farm):
        a = farm.engine("alexnet", "NX", 0)
        b = farm.engine("alexnet", "NX", 1)
        assert a.build_seed != b.build_seed

    def test_devices(self, farm):
        assert farm.engine("alexnet", "AGX", 0).device.name == "Xavier AGX"
        with pytest.raises(KeyError, match="unknown device"):
            device_by_name("TX2")

    def test_engines_list(self, farm):
        engines = farm.engines("alexnet", "NX", 3)
        assert len({e.build_seed for e in engines}) == 3


class TestLatencyHarness:
    def test_paper_clocks(self):
        assert paper_clock_for("NX") == 599.0
        assert paper_clock_for("AGX") == 624.75

    def test_measure_case_stats(self, farm):
        engine = farm.engine("alexnet", "NX", 0)
        stats = measure_case(engine, "NX", runs=5, seed=1)
        assert stats.runs == 5
        assert stats.mean_ms > 0
        assert stats.std_ms >= 0

    def test_latency_matrix_rows(self, farm):
        rows = latency_matrix(farm, models=("alexnet", "mtcnn"), runs=4)
        assert len(rows) == 2
        for row in rows:
            assert set(row.cases) == {
                "cNX_rNX", "cNX_rAGX", "cAGX_rAGX", "cAGX_rNX"
            }
            assert all(a in (1, 2, 3) for a in row.anomalies)

    def test_nvprof_inflates_latency(self, farm):
        """Table VIII (with nvprof) must exceed Table IX (without)."""
        with_prof = latency_matrix(
            farm, models=("alexnet",), runs=4, with_nvprof=True
        )[0]
        without = latency_matrix(
            farm, models=("alexnet",), runs=4, with_nvprof=False
        )[0]
        assert (
            with_prof.cases["cNX_rNX"].mean_ms
            > without.cases["cNX_rNX"].mean_ms
        )

    def test_memcpy_split_reduces_latency(self, farm):
        rows = memcpy_split(farm, models=("resnet18",), runs=4)
        row = rows[0]
        assert row.cnx_rnx_without.mean_ms < row.cnx_rnx_with.mean_ms
        assert row.cnx_ragx_without.mean_ms < row.cnx_ragx_with.mean_ms

    def test_engine_variance_rows(self, farm):
        rows = engine_variance(
            farm, models=("vgg16",), engines_per_model=3, runs=4
        )
        assert len(rows[0].per_engine) == 3
        assert rows[0].spread_pct() >= 0

    def test_kernel_invocation_variance(self, farm):
        reports = kernel_invocation_variance(
            farm, model="inception_v4", engines_per_model=2
        )
        assert reports
        # Engines must differ in at least one kernel's invocation count
        # (paper Table XIII).
        assert any(
            len(set(r.per_engine_calls)) > 1 for r in reports
        )

    def test_all_thirteen_models_listed(self):
        assert len(LATENCY_MODELS) == 13


class TestThroughputHarness:
    def test_gains_in_paper_band(self, farm):
        rows = classification_throughput(farm)
        for row in rows:
            # Paper Table VII gains range ~16-74x per model.
            assert 10 < row.nx_gain < 100, row.model
            assert 10 < row.agx_gain < 100, row.model
            assert row.nx_tensorrt_fps > row.nx_unoptimized_fps

    def test_agx_unoptimized_faster(self, farm):
        for row in classification_throughput(farm, models=("alexnet",)):
            assert row.agx_unoptimized_fps > row.nx_unoptimized_fps


class TestConcurrencyHarness:
    def test_sweep_saturation(self, farm):
        fig = concurrency_sweep("tiny_yolov3", "NX", farm)
        assert fig.saturation_threads >= 4
        assert 75 < fig.saturation_gpu_util <= 86.5
        assert fig.tegrastats.samples

    def test_agx_supports_more_threads(self, farm):
        nx = concurrency_sweep("tiny_yolov3", "NX", farm)
        agx = concurrency_sweep("tiny_yolov3", "AGX", farm)
        assert agx.saturation_threads > nx.saturation_threads


class TestBSPHarness:
    def test_prediction_errors_vary_across_engines(self, farm):
        predictions = prediction_across_engines(
            model="googlenet", engines_per_model=3, farm=farm
        )
        assert len(predictions) == 3
        errors = [p.error_pct for p in predictions]
        assert max(errors) != min(errors)
        for p in predictions:
            assert p.lambdas  # per-kernel lambdas calibrated
            assert p.predicted_target_ms > 0

    def test_lambdas_differ_across_engines(self, farm):
        predictions = prediction_across_engines(
            model="googlenet", engines_per_model=2, farm=farm
        )
        lam_a = {l.kernel: l.lam for l in predictions[0].lambdas}
        lam_b = {l.kernel: l.lam for l in predictions[1].lambdas}
        shared = set(lam_a) & set(lam_b)
        assert shared
        assert any(
            abs(lam_a[k] - lam_b[k]) / lam_a[k] > 1e-3 for k in shared
        )


class TestReportTables:
    def test_findings_table(self):
        text = findings_table()
        assert "Non-deterministic output" in text
        assert len(FINDINGS) == 4

    def test_application_tables(self):
        pos = application_impact_table(positive=True)
        neg = application_impact_table(positive=False)
        assert "Positive" in pos
        assert "Negative" in neg
        assert len(APPLICATION_IMPACTS) == 8
