"""Tests for the timing cache (deterministic rebuilds) and the
workspace limit (kernel filtering)."""

import warnings

import pytest

from repro.engine import BuilderConfig, EngineBuilder
from repro.engine.kernels import DEFAULT_CATALOG
from repro.engine.timing_cache import TimingCache, TimingCacheError
from repro.hardware.specs import XAVIER_AGX, XAVIER_NX
from repro.hardware.workload import LayerWorkload


def _workload(m=64, n=256, k=144):
    return LayerWorkload(
        flops=2.0 * m * n * k, bytes_in=n * k * 2, bytes_w=m * k * 2,
        bytes_out=m * n * 2, gemm_m=m, gemm_n=n, gemm_k=k,
        elements_out=m * n, category="conv",
    )


class TestTimingCacheCore:
    def test_miss_then_hit(self):
        cache = TimingCache("Xavier NX")
        w = _workload()
        assert cache.lookup("k1", w) is None
        cache.store("k1", w, 12.5)
        assert cache.lookup("k1", w) == 12.5
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_distinct_shapes_distinct_entries(self):
        cache = TimingCache("Xavier NX")
        cache.store("k1", _workload(m=64), 1.0)
        cache.store("k1", _workload(m=128), 2.0)
        assert len(cache) == 2
        assert cache.lookup("k1", _workload(m=64)) == 1.0

    def test_device_check(self):
        cache = TimingCache("Xavier NX")
        cache.check_device(XAVIER_NX)
        with pytest.raises(ValueError, match="refusing to reuse"):
            cache.check_device(XAVIER_AGX)

    def test_save_load_roundtrip(self, tmp_path):
        cache = TimingCache("Xavier NX")
        cache.store("k1", _workload(), 3.25)
        cache.store("k2", _workload(m=8), 0.75)
        path = tmp_path / "timings.json"
        cache.save(path)
        loaded = TimingCache.load(path)
        assert loaded.device_name == "Xavier NX"
        assert loaded.lookup("k1", _workload()) == 3.25
        assert loaded.lookup("k2", _workload(m=8)) == 0.75


class TestAtomicSave:
    """Regression: ``save`` used ``Path.write_text`` directly, so a
    crash (or two concurrent builds sharing one path) could leave a
    truncated/interleaved JSON.  Saves now go through a temp file +
    ``os.replace`` — interrupting one never destroys the previous
    intact generation."""

    def test_interrupted_save_preserves_previous_generation(
        self, tmp_path, monkeypatch
    ):
        import os

        path = tmp_path / "timings.json"
        gen1 = TimingCache("Xavier NX")
        gen1.store("k1", _workload(), 1.0)
        gen1.save(path)

        gen2 = TimingCache("Xavier NX")
        gen2.store("k1", _workload(), 2.0)
        gen2.store("k2", _workload(m=8), 3.0)

        real_replace = os.replace

        def crash_before_commit(src, dst):
            raise OSError("simulated crash before rename commit")

        monkeypatch.setattr(os, "replace", crash_before_commit)
        with pytest.raises(OSError, match="simulated crash"):
            gen2.save(path)
        monkeypatch.setattr(os, "replace", real_replace)

        # The previous generation is fully intact...
        loaded = TimingCache.load_or_cold(path, XAVIER_NX)
        assert loaded.lookup("k1", _workload()) == 1.0
        assert len(loaded) == 1
        # ...and no temp torso is left behind to be mistaken for a
        # cache.
        assert [p.name for p in tmp_path.iterdir()] == ["timings.json"]

    def test_interrupted_first_save_leaves_no_file(
        self, tmp_path, monkeypatch
    ):
        import os

        path = tmp_path / "fresh.json"
        cache = TimingCache("Xavier NX")
        cache.store("k1", _workload(), 1.0)
        monkeypatch.setattr(
            os, "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("crash")),
        )
        with pytest.raises(OSError):
            cache.save(path)
        # load_or_cold sees no file -> clean cold cache, not a crash.
        cold = TimingCache.load_or_cold(path, XAVIER_NX)
        assert len(cold) == 0

    def test_concurrent_saves_interleave_safely(self, tmp_path):
        """Two threads hammering one path: the file is always one
        complete generation, never a mix."""
        import threading

        path = tmp_path / "shared.json"
        caches = []
        for tag in range(2):
            c = TimingCache("Xavier NX")
            for i in range(20):
                c.store(f"t{tag}_k{i}", _workload(m=8 + i), float(tag))
            caches.append(c)

        def writer(cache):
            for _ in range(25):
                cache.save(path)

        threads = [
            threading.Thread(target=writer, args=(c,)) for c in caches
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        loaded = TimingCache.load(path)  # raises if truncated/mixed
        values = set()
        for key in list(loaded.entries):
            values.add(loaded.entries[key])
        assert values in ({0.0}, {1.0})  # one whole generation


class TestCachedBuilds:
    def test_cache_makes_rebuilds_deterministic(self, small_cnn):
        """The paper's mitigation: with a shared timing cache, builds
        with different seeds produce identical engines."""
        cache = TimingCache(XAVIER_NX.name)
        engines = [
            EngineBuilder(
                XAVIER_NX,
                BuilderConfig(seed=1000 + i, timing_cache=cache),
            ).build(small_cnn)
            for i in range(4)
        ]
        mappings = {tuple(e.kernel_names()) for e in engines}
        assert len(mappings) == 1
        assert cache.hits > 0

    def test_without_cache_builds_diverge(self, small_cnn):
        mappings = {
            tuple(
                EngineBuilder(
                    XAVIER_NX, BuilderConfig(seed=1000 + i)
                ).build(small_cnn).kernel_names()
            )
            for i in range(6)
        }
        assert len(mappings) > 1

    def test_cache_persists_across_processes(self, small_cnn, tmp_path):
        cache = TimingCache(XAVIER_NX.name)
        first = EngineBuilder(
            XAVIER_NX, BuilderConfig(seed=1, timing_cache=cache)
        ).build(small_cnn)
        path = tmp_path / "cache.json"
        cache.save(path)
        reloaded = TimingCache.load(path)
        second = EngineBuilder(
            XAVIER_NX, BuilderConfig(seed=999, timing_cache=reloaded)
        ).build(small_cnn)
        assert first.kernel_names() == second.kernel_names()

    def test_cross_device_cache_rejected(self, small_cnn):
        cache = TimingCache(XAVIER_NX.name)
        with pytest.raises(ValueError, match="refusing"):
            EngineBuilder(
                XAVIER_AGX, BuilderConfig(seed=1, timing_cache=cache)
            ).build(small_cnn)

    def test_warm_rebuild_is_much_faster(self, small_cnn):
        """Regression: ``build_time_us`` charged full auction time
        even when every candidate was a timing-cache hit.  A fully
        warm rebuild now pays only the lookup epsilon per candidate —
        the module's documented 'rebuilds are much faster' contract."""
        cache = TimingCache(XAVIER_NX.name)
        cold = EngineBuilder(
            XAVIER_NX, BuilderConfig(seed=1, timing_cache=cache)
        ).build(small_cnn)
        warm = EngineBuilder(
            XAVIER_NX, BuilderConfig(seed=2, timing_cache=cache)
        ).build(small_cnn)
        assert warm.kernel_names() == cold.kernel_names()
        assert warm.build_time_us * 10 <= cold.build_time_us

    def test_tactic_choice_tracks_fresh_vs_cached(self, small_cnn):
        cache = TimingCache(XAVIER_NX.name)
        cold = EngineBuilder(
            XAVIER_NX, BuilderConfig(seed=1, timing_cache=cache)
        ).build(small_cnn)
        warm = EngineBuilder(
            XAVIER_NX, BuilderConfig(seed=2, timing_cache=cache)
        ).build(small_cnn)
        cold_tactics = [
            b.tactic for b in cold.bindings if b.tactic is not None
        ]
        warm_tactics = [
            b.tactic for b in warm.bindings if b.tactic is not None
        ]
        # Cold build: fresh measurements dominate (the horizontal-merge
        # decider may have pre-warmed a few shapes within the build).
        assert sum(t.candidates_measured for t in cold_tactics) > 0
        assert all(
            t.candidates_measured <= t.candidates_timed
            for t in cold_tactics
        )
        # Fully warm: every auction answered from the cache.
        assert all(t.candidates_measured == 0 for t in warm_tactics)
        assert all(t.candidates_timed > 0 for t in warm_tactics)

    def test_uncached_build_charges_full_time(self, small_cnn):
        engine = EngineBuilder(
            XAVIER_NX, BuilderConfig(seed=1)
        ).build(small_cnn)
        expected = sum(
            b.tactic.measured_us * b.tactic.candidates_timed
            for b in engine.bindings
            if b.tactic is not None
        )
        assert engine.build_time_us == pytest.approx(expected)


class TestWorkspaceLimit:
    def test_workspace_bytes_properties(self):
        w = _workload(m=256, n=4096, k=512)
        split_k = DEFAULT_CATALOG.by_name(
            "trt_volta_h884cudnn_128x128_ldg8_relu_exp_interior_nhwc_tn_v1"
        )
        plain = DEFAULT_CATALOG.by_name(
            "trt_volta_h884cudnn_128x128_ldg8_relu_exp_medium_nhwc_tn_v1"
        )
        fp32 = DEFAULT_CATALOG.by_name(
            "trt_volta_scudnn_128x32_relu_small_nn_v1"
        )
        assert split_k.workspace_bytes(w) > 0  # partial-sum buffers
        assert plain.workspace_bytes(w) == 0  # fused tensor-core path
        assert fp32.workspace_bytes(w) > 0  # im2col buffer

    def test_tight_workspace_avoids_splitk_kernels(self, small_cnn):
        engine = EngineBuilder(
            XAVIER_NX,
            BuilderConfig(seed=2, timing_noise=0.0, workspace_mb=0.0),
        ).build(small_cnn)
        for binding in engine.bindings:
            if binding.tactic is None:
                continue
            kernel = binding.tactic.kernel
            # Only zero-scratch kernels (or the minimal fallback) allowed.
            assert kernel.workspace_bytes(binding.workload) == min(
                k.workspace_bytes(binding.workload)
                for k in DEFAULT_CATALOG.candidates(
                    binding.workload.category,
                    binding.workload.gemm_k,
                    [kernel.precision],
                )
            ) or kernel.workspace_bytes(binding.workload) == 0

    def test_generous_workspace_changes_nothing(self, small_cnn):
        tight = EngineBuilder(
            XAVIER_NX,
            BuilderConfig(seed=3, timing_noise=0.0, workspace_mb=256.0),
        ).build(small_cnn)
        huge = EngineBuilder(
            XAVIER_NX,
            BuilderConfig(seed=3, timing_noise=0.0, workspace_mb=4096.0),
        ).build(small_cnn)
        assert tight.kernel_names() == huge.kernel_names()


class TestHardenedCacheLoading:
    """Corrupt cache files produce typed diagnostics and the builder
    degrades to a cold cache instead of failing the rebuild."""

    def _saved_cache(self, tmp_path, device=XAVIER_NX):
        cache = TimingCache(device_name=device.name)
        cache.store("kernel_a", _workload(), 12.5)
        path = tmp_path / "timing.cache"
        cache.save(path)
        return path

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(TimingCacheError, match="unreadable"):
            TimingCache.load(tmp_path / "nope.cache")

    def test_truncated_json_is_typed(self, tmp_path):
        path = self._saved_cache(tmp_path)
        path.write_text(path.read_text()[: 40])
        with pytest.raises(TimingCacheError, match="not valid JSON"):
            TimingCache.load(path)

    def test_binary_garbage_is_typed(self, tmp_path):
        path = tmp_path / "garbage.cache"
        path.write_bytes(bytes(range(256)))
        with pytest.raises(TimingCacheError, match="not valid JSON"):
            TimingCache.load(path)

    @pytest.mark.parametrize(
        "doc, match",
        [
            ("[1, 2]", "top level"),
            ('{"entries": []}', "device"),
            ('{"device": "NX"}', "entries"),
            ('{"device": "NX", "entries": [5]}', "not an object"),
            ('{"device": "NX", "entries": [{"key": [1, 2]}]}', "7-element"),
            (
                '{"device": "NX", "entries": '
                '[{"key": ["k", 1, 2, 3, 4, 5, 6]}]}',
                "malformed",
            ),
        ],
    )
    def test_schema_violations_are_typed(self, tmp_path, doc, match):
        path = tmp_path / "bad.cache"
        path.write_text(doc)
        with pytest.raises(TimingCacheError, match=match):
            TimingCache.load(path)

    def test_load_or_cold_missing_file_is_silent(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = TimingCache.load_or_cold(
                tmp_path / "absent.cache", XAVIER_NX
            )
        assert len(cache) == 0
        assert cache.device_name == XAVIER_NX.name

    def test_load_or_cold_corrupt_file_warns(self, tmp_path):
        path = tmp_path / "corrupt.cache"
        path.write_text("{truncated")
        with pytest.warns(RuntimeWarning, match="cold timing cache"):
            cache = TimingCache.load_or_cold(path, XAVIER_NX)
        assert len(cache) == 0

    def test_load_or_cold_cross_device_warns(self, tmp_path):
        path = self._saved_cache(tmp_path, device=XAVIER_AGX)
        with pytest.warns(RuntimeWarning, match="cold timing cache"):
            cache = TimingCache.load_or_cold(path, XAVIER_NX)
        assert len(cache) == 0
        assert cache.device_name == XAVIER_NX.name

    def test_builder_uses_cache_path(self, small_cnn, tmp_path):
        path = tmp_path / "build.cache"
        cache = TimingCache(XAVIER_NX.name)
        first = EngineBuilder(
            XAVIER_NX, BuilderConfig(seed=1, timing_cache=cache)
        ).build(small_cnn)
        cache.save(path)
        rebuilt = EngineBuilder(
            XAVIER_NX,
            BuilderConfig(seed=999, timing_cache_path=str(path)),
        ).build(small_cnn)
        assert rebuilt.kernel_names() == first.kernel_names()

    def test_builder_survives_corrupt_cache_path(self, small_cnn, tmp_path):
        path = tmp_path / "hosed.cache"
        path.write_bytes(b"\x00\xff" * 64)
        with pytest.warns(RuntimeWarning, match="cold timing cache"):
            engine = EngineBuilder(
                XAVIER_NX,
                BuilderConfig(seed=1, timing_cache_path=str(path)),
            ).build(small_cnn)
        assert engine.bindings
