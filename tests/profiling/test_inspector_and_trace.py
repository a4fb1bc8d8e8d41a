"""Tests for the engine inspector and the Chrome-trace exporter."""

import json

import pytest

from repro.engine import BuilderConfig, EngineBuilder
from repro.engine.inspector import inspect_engine, inspect_engine_json
from repro.hardware.specs import XAVIER_AGX, XAVIER_NX
from repro.profiling.chrome_trace import save_chrome_trace, to_chrome_trace


@pytest.fixture(scope="module")
def engine():
    from tests.conftest import make_small_cnn

    return EngineBuilder(XAVIER_NX, BuilderConfig(seed=19)).build(
        make_small_cnn()
    )


class TestInspector:
    def test_covers_all_bindings(self, engine):
        report = inspect_engine(engine)
        assert report["num_layers"] == len(engine.bindings)
        assert {e["layer"] for e in report["layers"]} == {
            b.layer_name for b in engine.bindings
        }

    def test_kernel_entries_have_cost_breakdown(self, engine):
        report = inspect_engine(engine)
        for entry in report["layers"]:
            for kernel in entry["kernels"]:
                breakdown = kernel["breakdown_us"]
                assert set(breakdown) == {
                    "launch", "compute", "bandwidth", "latency"
                }
                assert kernel["predicted_us"] > 0

    def test_auction_metadata_present(self, engine):
        report = inspect_engine(engine)
        auctioned = [e for e in report["layers"] if "auction" in e]
        assert auctioned
        for entry in auctioned:
            assert entry["auction"]["candidates_timed"] >= 1
            assert entry["weight_bytes_stored"] >= 0

    def test_cross_device_inspection(self, engine):
        nx = inspect_engine(engine, XAVIER_NX, clock_mhz=599.0)
        agx = inspect_engine(engine, XAVIER_AGX, clock_mhz=624.75)
        assert nx["inspected_on"] == "Xavier NX"
        assert agx["inspected_on"] == "Xavier AGX"
        assert nx["predicted_kernel_us"] != agx["predicted_kernel_us"]

    def test_json_serializable(self, engine):
        doc = json.loads(inspect_engine_json(engine))
        assert doc["engine"] == engine.name

    def test_predicted_total_matches_sum(self, engine):
        report = inspect_engine(engine)
        summed = sum(
            k["predicted_us"]
            for e in report["layers"]
            for k in e["kernels"]
        )
        assert report["predicted_kernel_us"] == pytest.approx(
            summed, abs=0.1
        )

    @pytest.mark.parametrize(
        "model, provider",
        [("pednet", "trt"), ("mobilenet_v1", "trt"), ("googlenet", "cuda"),
         ("mtcnn", "cpu"), ("ssd_inception_v2", "cuda,trt")],
    )
    def test_predictions_are_what_the_timeline_bills(self, model, provider):
        # Each kernel's prediction is its noiseless timeline duration,
        # multi-kernel detection bindings and provider scaling included.
        from repro.analysis.engines import EngineFarm

        farm = EngineFarm(pretrained=False, base_seed=3, provider=provider)
        engine = farm.engine(model, "NX")
        report = inspect_engine(engine, clock_mhz=599.0)
        timing = engine.create_execution_context().time_inference(
            clock_mhz=599.0, include_engine_upload=False, jitter=0.0
        )
        predicted = [
            k["predicted_us"] for e in report["layers"] for k in e["kernels"]
        ]
        assert predicted == [
            round(d, 3) for d in timing.kernel_durations.tolist()
        ]
        assert report["predicted_kernel_us"] == round(timing.kernel_us, 3)


class TestChromeTrace:
    def _timing(self, engine):
        return engine.create_execution_context().time_inference(jitter=0.0)

    def test_single_timing_events(self, engine):
        timing = self._timing(engine)
        doc = to_chrome_trace(timing)
        xs = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(xs) == len(timing.kernel_events) + len(
            timing.memcpy_events
        )
        assert doc["otherData"]["device"] == "Xavier NX"

    def test_tracks_separated(self, engine):
        doc = to_chrome_trace(self._timing(engine))
        kernel_tids = {
            e["tid"]
            for e in doc["traceEvents"]
            if e.get("cat") == "kernel"
        }
        memcpy_tids = {
            e["tid"]
            for e in doc["traceEvents"]
            if e.get("cat") == "memcpy"
        }
        assert kernel_tids and memcpy_tids
        assert kernel_tids.isdisjoint(memcpy_tids)

    def test_multiple_runs_offset(self, engine):
        a = self._timing(engine)
        b = self._timing(engine)
        doc = to_chrome_trace([a, b])
        run1 = [
            e
            for e in doc["traceEvents"]
            if e.get("args", {}).get("run") == 1
        ]
        assert run1
        assert min(e["ts"] for e in run1) >= a.total_us

    def test_events_are_chronological_within_run(self, engine):
        doc = to_chrome_trace(self._timing(engine))
        kernel_ts = [
            e["ts"]
            for e in doc["traceEvents"]
            if e.get("cat") == "kernel"
        ]
        assert kernel_ts == sorted(kernel_ts)

    def test_save(self, engine, tmp_path):
        path = tmp_path / "trace.json"
        save_chrome_trace(self._timing(engine), path)
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
