"""API-normalization regression tests: the canonical ``provider=`` axis
threads through plan rebuilds and the supervisor's store path."""

from __future__ import annotations

import warnings

from repro.engine import BuilderConfig, EngineStore
from repro.hardware.specs import XAVIER_NX
from repro.serving import load_or_rebuild
from repro.serving.supervisor import InferenceSupervisor, StreamSpec


class TestCanonicalProviderAxis:
    def test_rebuild_honors_provider(self, tmp_path, small_cnn):
        missing = tmp_path / "nope.plan"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            engine, rebuilt = load_or_rebuild(
                missing, small_cnn, XAVIER_NX, provider="cuda"
            )
        assert rebuilt
        assert all(b.provider == "cuda" for b in engine.bindings)

    def test_store_rebuild_honors_provider(self, tmp_path, small_cnn):
        store = EngineStore(tmp_path / "store")
        missing = tmp_path / "nope.plan"
        engine, rebuilt = load_or_rebuild(
            missing, small_cnn, XAVIER_NX,
            store=store, provider="cpu",
        )
        assert rebuilt
        assert all(b.provider == "cpu" for b in engine.bindings)

    def test_supervisor_from_store_provider(self, tmp_path, small_cnn):
        store = EngineStore(tmp_path / "store")
        sup = InferenceSupervisor.from_store(
            store,
            small_cnn,
            XAVIER_NX,
            builder_config=BuilderConfig(seed=0),
            provider="cuda",
            streams=[StreamSpec("cam0")],
        )
        assert all(
            b.provider == "cuda" for b in sup.engines[0].bindings
        )
