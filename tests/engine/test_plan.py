"""Tests for engine plan serialization (repro.engine.plan)."""

import io
import zipfile

import numpy as np
import pytest

from repro.engine import BuilderConfig, EngineBuilder
from repro.engine.plan import load_plan, save_plan
from repro.hardware.specs import XAVIER_AGX, XAVIER_NX
from repro.lint import lint_plan
from repro.models import MODEL_REGISTRY, build_model


@pytest.fixture()
def engine(small_cnn):
    return EngineBuilder(XAVIER_NX, BuilderConfig(seed=21)).build(small_cnn)


class TestPlanRoundtrip:
    def test_metadata_preserved(self, engine, tmp_path):
        path = tmp_path / "e.plan"
        save_plan(engine, path)
        loaded = load_plan(path)
        assert loaded.name == engine.name
        assert loaded.device is XAVIER_NX
        assert loaded.size_bytes == engine.size_bytes
        assert loaded.build_seed == engine.build_seed
        assert loaded.precision_mode == engine.precision_mode
        assert loaded.weight_chunks == engine.weight_chunks

    def test_kernel_bindings_preserved(self, engine, tmp_path):
        path = tmp_path / "e.plan"
        save_plan(engine, path)
        loaded = load_plan(path)
        assert loaded.kernel_names() == engine.kernel_names()

    def test_numeric_equivalence(self, engine, tmp_path, images16):
        path = tmp_path / "e.plan"
        save_plan(engine, path)
        loaded = load_plan(path)
        a = engine.create_execution_context().execute(
            data=images16
        ).primary()
        b = loaded.create_execution_context().execute(
            data=images16
        ).primary()
        np.testing.assert_array_equal(a, b)

    def test_timing_equivalence(self, engine, tmp_path):
        """The deployed plan must take the same simulated time as the
        freshly built engine — same kernels, same workloads."""
        path = tmp_path / "e.plan"
        save_plan(engine, path)
        loaded = load_plan(path)
        a = engine.create_execution_context().time_inference(jitter=0.0)
        b = loaded.create_execution_context().time_inference(jitter=0.0)
        assert a.total_us == pytest.approx(b.total_us, rel=1e-9)

    def test_cross_platform_deployment(self, engine, tmp_path):
        """The paper's case 2: an NX-built plan file executed on AGX."""
        path = tmp_path / "e.plan"
        save_plan(engine, path)
        loaded = load_plan(path)
        ctx = loaded.create_execution_context(run_device=XAVIER_AGX)
        timing = ctx.time_inference(jitter=0.0)
        assert timing.device_name == "Xavier AGX"

    def test_bad_version_rejected(self, engine, tmp_path):
        import json

        path = tmp_path / "bad.plan"
        with open(path, "wb") as f:
            np.savez_compressed(
                f,
                __plan__=np.frombuffer(
                    json.dumps({"plan_version": 99}).encode(),
                    dtype=np.uint8,
                ),
                __graph__=np.zeros(1, dtype=np.uint8),
            )
        with pytest.raises(Exception):
            load_plan(path)


class TestDetectionModelPlan:
    def test_mobilenet_plan_roundtrip(self, farm, tmp_path):
        """Plans with fixed kernel sequences (detection layers) and
        depthwise convolutions must survive serialization."""
        engine = farm.engine("mobilenet_v1", "NX", 0)
        path = tmp_path / "det.plan"
        save_plan(engine, path)
        loaded = load_plan(path)
        assert loaded.kernel_names() == engine.kernel_names()
        det = loaded.binding_for("detections")
        assert det.tactic is None
        assert len(det.kernels) == 4
        a = engine.create_execution_context().time_inference(jitter=0.0)
        b = loaded.create_execution_context().time_inference(jitter=0.0)
        assert abs(a.total_us - b.total_us) / a.total_us < 1e-9


def _compression(path):
    """Member name -> zip compression type, for the plan archive at
    ``path`` and for the graph archive inside it."""
    with zipfile.ZipFile(path) as archive:
        plan = {i.filename: i.compress_type for i in archive.infolist()}
    with np.load(path, allow_pickle=False) as archive:
        blob = io.BytesIO(bytes(archive["__graph__"]))
    with zipfile.ZipFile(blob) as archive:
        graph = {i.filename: i.compress_type for i in archive.infolist()}
    return plan, graph


def save_deflated_plan(engine, path):
    """Write ``engine`` the way plans were written before their archives
    were stored: the graph archive and the plan archive around it both
    ``np.savez_compressed``."""
    save_plan(engine, path)
    with np.load(path, allow_pickle=False) as archive:
        doc, blob = archive["__plan__"], bytes(archive["__graph__"])
    with np.load(io.BytesIO(blob), allow_pickle=False) as graph:
        members = {key: graph[key] for key in graph.files}
    graph_buf = io.BytesIO()
    np.savez_compressed(graph_buf, **members)
    with open(path, "wb") as f:
        np.savez_compressed(
            f,
            __plan__=doc,
            __graph__=np.frombuffer(graph_buf.getvalue(), dtype=np.uint8),
        )


@pytest.fixture(scope="module")
def googlenet_plan(tmp_path_factory):
    graph = build_model("googlenet", pretrained=False)
    config = BuilderConfig(
        seed=7, input_name=MODEL_REGISTRY["googlenet"].input_name
    )
    path = tmp_path_factory.mktemp("plans") / "googlenet.plan"
    save_plan(EngineBuilder(XAVIER_NX, config).build(graph), path)
    return path


class TestPlanArchive:
    def test_members_are_stored_not_deflated(self, engine, tmp_path):
        path = tmp_path / "e.plan"
        save_plan(engine, path)
        plan, graph = _compression(path)
        assert list(plan) == ["__plan__.npy", "__graph__.npy"]
        assert any(name.startswith("w::") for name in graph)
        assert {*plan.values(), *graph.values()} == {zipfile.ZIP_STORED}

    def test_deflated_plan_still_loads_and_lints_clean(
        self, engine, tmp_path
    ):
        path = tmp_path / "old.plan"
        save_deflated_plan(engine, path)
        plan, graph = _compression(path)
        assert {*plan.values(), *graph.values()} == {zipfile.ZIP_DEFLATED}
        assert lint_plan(path).ok
        loaded = load_plan(path)
        assert loaded.kernel_names() == engine.kernel_names()
        assert loaded.math_config.per_layer == engine.math_config.per_layer
        for layer in engine.graph.layers:
            weights = loaded.graph.layer(layer.name).weights
            assert sorted(weights) == sorted(layer.weights)
            for key, value in layer.weights.items():
                assert weights[key].dtype == value.dtype
                assert weights[key].tobytes() == value.tobytes()

    def test_single_byte_flips_fail_the_audit(self, googlenet_plan, tmp_path):
        """Seeded flips anywhere in the file: the zip CRC-32 of a stored
        member catches a flipped data byte, as deflate's decoder did.
        Metadata bytes the reader skips are the next test's."""
        data = googlenet_plan.read_bytes()
        assert lint_plan(googlenet_plan).ok
        rng = np.random.default_rng(0)
        positions = rng.integers(0, len(data), size=200)
        masks = rng.integers(1, 256, size=200)
        damaged = tmp_path / "damaged.plan"
        passed = []
        for pos, mask in zip(positions, masks):
            flipped = bytearray(data)
            flipped[pos] ^= int(mask)
            damaged.write_bytes(bytes(flipped))
            if lint_plan(damaged).ok:
                passed.append(int(pos))
        assert passed == []

    def test_flips_in_zip_metadata_fail_or_change_nothing(
        self, engine, tmp_path
    ):
        """Outside the members' data, the reader takes names, offsets,
        sizes and CRCs from the central directory and ignores the rest:
        timestamps, attributes and the local headers' copies.  A flip
        there may pass the audit, but the plan then loads unchanged."""
        path = tmp_path / "e.plan"
        save_plan(engine, path)
        data = path.read_bytes()
        payload = set()
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                at = info.header_offset
                start = at + 30 + int.from_bytes(
                    data[at + 26:at + 28], "little"
                ) + int.from_bytes(data[at + 28:at + 30], "little")
                payload.update(range(start, start + info.compress_size))
        damaged = tmp_path / "damaged.plan"
        unread = 0
        for pos in range(len(data)):
            if pos in payload:
                continue
            flipped = bytearray(data)
            flipped[pos] ^= 0xFF
            damaged.write_bytes(bytes(flipped))
            if not lint_plan(damaged).ok:
                continue
            unread += 1
            loaded = load_plan(damaged)
            assert loaded.kernel_names() == engine.kernel_names()
            assert loaded.size_bytes == engine.size_bytes
            for layer in engine.graph.layers:
                weights = loaded.graph.layer(layer.name).weights
                for key, value in layer.weights.items():
                    assert weights[key].tobytes() == value.tobytes()
        assert 0 < unread < len(data) - len(payload)
