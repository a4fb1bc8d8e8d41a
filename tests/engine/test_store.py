"""Tests for the persistent engine store and the warm engine pool.

The acceptance bar (ISSUE 5): a second ``get_or_build`` for the same
(network, device, config) performs **zero** tactic measurements,
returns bit-identical tactic bindings and outputs, and reports a
``build_time_us`` at least 10x below the cold build's; racing writers
never corrupt an artifact; evicted-then-rebuilt engines match.
"""

import json
import threading

import numpy as np
import pytest

from repro.engine import (
    BuilderConfig,
    EngineBuilder,
    EnginePool,
    EngineStore,
    PrecisionMode,
    config_fingerprint,
    network_digest,
    store_key,
)
from repro.engine.builder import EngineBuilder as _Builder
from repro.hardware.specs import XAVIER_AGX, XAVIER_NX
from repro.telemetry import session
from repro.telemetry.bus import BUS, SpanKind
from repro.telemetry.sinks import JsonlSink

from tests.conftest import make_small_cnn


@pytest.fixture()
def store(tmp_path):
    return EngineStore(tmp_path / "store")


def _outputs(engine, seed=0):
    spec = engine.graph.input_specs[engine.input_name]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1,) + tuple(spec.shape)).astype(np.float32)
    ctx = engine.create_execution_context()
    return ctx.execute(**{engine.input_name: x}).outputs


# ----------------------------------------------------------------------
# content addressing
# ----------------------------------------------------------------------
class TestStoreKey:
    def test_digest_stable_across_copies(self, small_cnn):
        assert network_digest(small_cnn) == network_digest(
            small_cnn.copy()
        )

    def test_weights_change_digest(self, small_cnn):
        other = small_cnn.copy()
        layer = next(l for l in other.layers if l.weights)
        key = next(iter(layer.weights))
        layer.weights[key] = layer.weights[key] + 1.0
        assert network_digest(small_cnn) != network_digest(other)

    def test_seed_excluded_from_fingerprint(self):
        a = config_fingerprint(BuilderConfig(seed=1))
        b = config_fingerprint(BuilderConfig(seed=999))
        assert a == b

    def test_timing_cache_excluded_from_fingerprint(self, tmp_path):
        a = config_fingerprint(BuilderConfig())
        b = config_fingerprint(
            BuilderConfig(timing_cache_path=str(tmp_path / "x.json"))
        )
        assert a == b

    def test_precision_and_device_change_key(self, small_cnn):
        k1 = store_key(small_cnn, XAVIER_NX, BuilderConfig())
        k2 = store_key(
            small_cnn, XAVIER_NX,
            BuilderConfig(precision=PrecisionMode.FP32),
        )
        k3 = store_key(small_cnn, XAVIER_AGX, BuilderConfig())
        assert len({k1.digest, k2.digest, k3.digest}) == 3


# ----------------------------------------------------------------------
# warm path acceptance
# ----------------------------------------------------------------------
class TestWarmPath:
    def test_second_build_is_hit_with_identical_artifact(
        self, store, small_cnn
    ):
        cold, r1 = store.get_or_build(
            small_cnn, XAVIER_NX, BuilderConfig(seed=7)
        )
        warm, r2 = store.get_or_build(
            small_cnn, XAVIER_NX, BuilderConfig(seed=4242)
        )
        assert r1.outcome == "miss" and r2.outcome == "hit"
        assert r2.fresh_measurements == 0
        # Bit-identical tactic bindings, despite the different seed.
        assert warm.kernel_names() == cold.kernel_names()
        # Bit-identical outputs.
        o_cold, o_warm = _outputs(cold), _outputs(warm)
        assert set(o_cold) == set(o_warm)
        for name in o_cold:
            np.testing.assert_array_equal(o_cold[name], o_warm[name])
        # >= 10x faster acquisition, per the acceptance bar.
        assert warm.build_time_us * 10 <= cold.build_time_us

    def test_hit_never_invokes_the_builder(
        self, store, small_cnn, monkeypatch
    ):
        store.get_or_build(small_cnn, XAVIER_NX, BuilderConfig(seed=1))

        def boom(self, network):
            raise AssertionError(
                "store hit must not run a tactic auction"
            )

        monkeypatch.setattr(_Builder, "build", boom)
        engine, result = store.get_or_build(
            small_cnn, XAVIER_NX, BuilderConfig(seed=2)
        )
        assert result.is_hit
        assert engine.num_kernels > 0

    def test_pool_hit_skips_deserialization(self, tmp_path, small_cnn):
        store = EngineStore(
            tmp_path / "s", pool=EnginePool(device=XAVIER_NX)
        )
        first, _ = store.get_or_build(small_cnn, XAVIER_NX)
        again, result = store.get_or_build(small_cnn, XAVIER_NX)
        assert result.outcome == "pool_hit"
        assert again is first  # the very same live object

    def test_hit_returns_engine_loadable_from_stored_plan(
        self, store, small_cnn
    ):
        from repro.engine.plan import load_plan

        _, r1 = store.get_or_build(small_cnn, XAVIER_NX)
        warm, _ = store.get_or_build(small_cnn, XAVIER_NX)
        stored = load_plan(store.plan_path(r1.key))
        assert warm.kernel_names() == stored.kernel_names()


# ----------------------------------------------------------------------
# one read per lint-gated load
# ----------------------------------------------------------------------
def _count_plan_reads(monkeypatch):
    """Record every :func:`repro.engine.plan.read_plan` call from now on."""
    from repro.engine import plan

    calls = []
    read_plan = plan.read_plan

    def counting(path):
        calls.append(path)
        return read_plan(path)

    monkeypatch.setattr(plan, "read_plan", counting)
    return calls


class TestOneRead:
    def test_store_hit_reads_the_plan_once(
        self, store, small_cnn, monkeypatch
    ):
        _, r1 = store.get_or_build(small_cnn, XAVIER_NX)
        calls = _count_plan_reads(monkeypatch)
        engine, r2 = store.get_or_build(small_cnn, XAVIER_NX)
        assert r2.outcome == "hit" and engine.num_kernels > 0
        assert calls == [store.plan_path(r1.key)]

    def test_load_or_rebuild_reads_the_plan_once(
        self, small_cnn, tmp_path, monkeypatch
    ):
        from repro.engine.plan import save_plan
        from repro.serving import load_or_rebuild

        shipped = EngineBuilder(XAVIER_NX, BuilderConfig(seed=3)).build(
            small_cnn
        )
        path = tmp_path / "shipped.plan"
        save_plan(shipped, path)
        calls = _count_plan_reads(monkeypatch)
        engine, rebuilt = load_or_rebuild(path, small_cnn, XAVIER_NX)
        assert not rebuilt
        assert engine.kernel_names() == shipped.kernel_names()
        assert len(calls) == 1


# ----------------------------------------------------------------------
# corruption, eviction, rebuild
# ----------------------------------------------------------------------
class TestIntegrity:
    def test_corrupt_plan_evicted_and_rebuilt_with_same_tactics(
        self, store, small_cnn
    ):
        cold, r1 = store.get_or_build(
            small_cnn, XAVIER_NX, BuilderConfig(seed=5)
        )
        # Corrupt the committed plan in place.
        store.plan_path(r1.key).write_bytes(b"not a plan at all")
        rebuilt, r2 = store.get_or_build(
            small_cnn, XAVIER_NX, BuilderConfig(seed=31337)
        )
        # The sidecar timing cache survived the eviction, so the
        # rebuild binds the same tactics with zero fresh measurements.
        assert r2.outcome == "rebuilt"
        assert r2.fresh_measurements == 0
        assert rebuilt.kernel_names() == cold.kernel_names()
        assert store.evictions == 1
        # And the store is healthy again: next call is a clean hit.
        _, r3 = store.get_or_build(small_cnn, XAVIER_NX)
        assert r3.outcome == "hit"

    def test_evicted_then_rebuilt_engine_matches(self, store, small_cnn):
        cold, r1 = store.get_or_build(small_cnn, XAVIER_NX)
        assert store.evict(r1.key, keep_cache=True)
        rebuilt, r2 = store.get_or_build(small_cnn, XAVIER_NX)
        assert r2.outcome == "rebuilt"
        assert rebuilt.kernel_names() == cold.kernel_names()

    def test_full_eviction_forces_cold_rebuild(self, store, small_cnn):
        _, r1 = store.get_or_build(small_cnn, XAVIER_NX)
        assert store.evict(r1.key)  # cache gone too
        _, r2 = store.get_or_build(small_cnn, XAVIER_NX)
        assert r2.outcome == "miss"
        assert r2.fresh_measurements > 0

    def test_uncommitted_torso_is_a_miss(self, store, small_cnn):
        key = store_key(small_cnn, XAVIER_NX, BuilderConfig(seed=0))
        # A crashed put: plan present, meta.json (the commit marker)
        # absent.
        d = store.entry_dir(key.digest)
        d.mkdir(parents=True)
        (d / EngineStore.PLAN_NAME).write_bytes(b"torso")
        engine, result = store.get_or_build(small_cnn, XAVIER_NX)
        assert result.outcome == "miss"
        assert engine.num_kernels > 0
        assert store.entries()  # now committed

    def test_cross_device_sidecar_rejected(self, store, small_cnn):
        _, r1 = store.get_or_build(small_cnn, XAVIER_NX)
        assert store.sidecar_cache(r1.key, XAVIER_NX) is not None
        assert store.sidecar_cache(r1.key, XAVIER_AGX) is None


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_racing_builders_never_corrupt_the_store(
        self, tmp_path, small_cnn
    ):
        """Two independent store instances (two 'processes') race the
        same key: one builds, the other builds or hits — both end with
        a valid artifact and identical tactics."""
        root = tmp_path / "shared"
        barrier = threading.Barrier(2)
        results = {}

        def worker(name):
            local = EngineStore(root)
            barrier.wait()
            engine, result = local.get_or_build(
                small_cnn, XAVIER_NX, BuilderConfig(seed=hash(name) % 100)
            )
            results[name] = (engine, result)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        (e1, r1), (e2, r2) = results["w0"], results["w1"]
        assert e1.kernel_names() and e2.kernel_names()
        # The committed artifact is lint-clean and loads.
        final = EngineStore(root)
        engine, result = final.get_or_build(small_cnn, XAVIER_NX)
        assert result.outcome == "hit"
        assert result.fresh_measurements == 0
        assert engine.kernel_names() in (
            e1.kernel_names(), e2.kernel_names()
        )

    def test_many_threads_one_committed_entry(self, tmp_path, small_cnn):
        root = tmp_path / "shared"
        stop = []

        def worker(i):
            local = EngineStore(root)
            local.get_or_build(
                small_cnn, XAVIER_NX, BuilderConfig(seed=i)
            )

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        del stop
        assert len(EngineStore(root).entries()) == 1


# ----------------------------------------------------------------------
# gc / LRU
# ----------------------------------------------------------------------
class TestGc:
    def _populate(self, store, count=3):
        nets = [make_small_cnn(seed=i) for i in range(count)]
        keys = []
        for net in nets:
            _, r = store.get_or_build(net, XAVIER_NX)
            keys.append(r.key)
        return nets, keys

    def test_gc_max_entries_evicts_lru(self, store):
        nets, keys = self._populate(store, 3)
        # Touch the oldest so it becomes MRU.
        store.get_or_build(nets[0], XAVIER_NX)
        evicted = store.gc(max_entries=2)
        assert [e.digest for e in evicted] == [keys[1]]
        remaining = {e.digest for e in store.entries()}
        assert remaining == {keys[0], keys[2]}

    def test_gc_max_bytes(self, store):
        _, keys = self._populate(store, 3)
        sizes = {e.digest: e.size_bytes for e in store.entries()}
        budget = sizes[keys[1]] + sizes[keys[2]]
        evicted = store.gc(max_bytes=budget)
        assert [e.digest for e in evicted] == [keys[0]]

    def test_gc_noop_under_budget(self, store):
        self._populate(store, 2)
        assert store.gc(max_entries=10, max_bytes=10**9) == []
        assert len(store.entries()) == 2


# ----------------------------------------------------------------------
# engine pool
# ----------------------------------------------------------------------
class TestEnginePool:
    def _engine(self, seed=0):
        return EngineBuilder(
            XAVIER_NX, BuilderConfig(seed=seed)
        ).build(make_small_cnn(seed=seed))

    def test_budget_from_device_spec(self):
        pool = EnginePool(device=XAVIER_NX)
        from repro.engine.store import POOL_RAM_FRACTION

        assert pool.budget_bytes == int(
            XAVIER_NX.ram_gb * 1024**3 * POOL_RAM_FRACTION
        )

    def test_needs_budget_or_device(self):
        with pytest.raises(ValueError, match="budget_bytes or a device"):
            EnginePool()

    def test_lru_eviction_under_budget(self):
        engines = [self._engine(i) for i in range(3)]
        budget = engines[0].size_bytes + engines[1].size_bytes
        pool = EnginePool(budget_bytes=int(budget * 1.01))
        pool.put("a", engines[0])
        pool.put("b", engines[1])
        assert pool.get("a") is engines[0]  # 'a' is now MRU
        pool.put("c", engines[2])
        assert "b" not in pool  # LRU evicted
        assert pool.get("a") is engines[0]
        assert pool.evictions == 1

    def test_oversize_engine_rejected(self):
        engine = self._engine()
        pool = EnginePool(budget_bytes=engine.size_bytes // 2)
        assert not pool.put("big", engine)
        assert len(pool) == 0
        assert pool.rejected == 1


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
class TestStoreTelemetry:
    def test_store_spans_and_metrics(self, store, small_cnn, tmp_path):
        sink = JsonlSink()
        with session(sink):
            store.get_or_build(small_cnn, XAVIER_NX)
            store.get_or_build(small_cnn, XAVIER_NX)
            metrics = BUS.metrics.to_dict()
        events = [json.loads(line) for line in sink.lines]
        store_events = [
            e for e in events if e["kind"] == SpanKind.STORE.value
        ]
        assert {"miss", "put", "hit"} <= {
            e["attrs"]["event"] for e in store_events
        }
        names = {m["name"] for m in metrics["counters"]}
        assert "trtsim_store_hits_total" in names
        assert "trtsim_store_misses_total" in names
        assert "trtsim_store_puts_total" in names

    def test_silent_without_sinks(self, store, small_cnn):
        # No sinks attached: the store must not emit (zero-overhead
        # contract of the bus).
        assert not BUS.active
        _, r = store.get_or_build(small_cnn, XAVIER_NX)
        assert r.outcome == "miss"
