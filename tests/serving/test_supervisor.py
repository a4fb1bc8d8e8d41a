"""The resilient serving supervisor: retry/backoff policy, watchdog,
admission control, fallback ladder, plan rebuild, and the supervised
vs unsupervised SLO comparison."""

import numpy as np
import pytest

from repro.engine.builder import BuilderConfig, EngineBuilder
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultScenario,
    zero_fault_plan,
)
from repro.hardware.specs import XAVIER_NX
from repro.serving import (
    InferenceSupervisor,
    StreamSpec,
    SupervisorConfig,
    load_or_rebuild,
    run_fault_comparison,
)

from ..conftest import make_small_cnn


@pytest.fixture(scope="module")
def engine(small_cnn):
    return EngineBuilder(XAVIER_NX, BuilderConfig(seed=0)).build(small_cnn)


@pytest.fixture(scope="module")
def lite_engine():
    """A genuinely cheaper fallback: quarter-resolution input."""
    return EngineBuilder(XAVIER_NX, BuilderConfig(seed=0)).build(
        make_small_cnn(seed=1, with_dead_branch=False, input_size=8)
    )


def _healthy_ms(engine):
    context = engine.create_execution_context()
    return context.time_inference(
        include_engine_upload=False, jitter=0.0
    ).total_ms


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "field, value",
    [
        ("deadline_ms", float("nan")),
        ("deadline_ms", 0.0),
        ("deadline_ms", -33.0),
        ("frame_period_s", float("inf")),
        ("frame_period_s", 0.0),
        ("watchdog_factor", float("nan")),
        ("watchdog_factor", -1.0),
        ("backoff_base_ms", -2.0),
        ("backoff_factor", float("nan")),
        ("backoff_jitter", float("inf")),
        ("max_backoff_ms", float("nan")),
        ("recover_margin", -0.5),
        ("admission_headroom_mb", float("nan")),
        ("max_retries", -1),
        ("degrade_after", -1),
        ("recover_after", -2),
    ],
)
def test_supervisor_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        SupervisorConfig(**{field: value})


# ----------------------------------------------------------------------
# backoff schedule
# ----------------------------------------------------------------------
class TestBackoffSchedule:
    def test_exponential_growth_with_cap(self):
        cfg = SupervisorConfig(
            backoff_base_ms=2.0,
            backoff_factor=2.0,
            backoff_jitter=0.0,
            max_backoff_ms=10.0,
        )
        rng = np.random.default_rng(0)
        schedule = [cfg.backoff_ms(a, rng) for a in range(1, 6)]
        assert schedule == [2.0, 4.0, 8.0, 10.0, 10.0]

    def test_jitter_stays_within_band(self):
        cfg = SupervisorConfig(
            backoff_base_ms=4.0, backoff_factor=2.0, backoff_jitter=0.25
        )
        rng = np.random.default_rng(3)
        for attempt in (1, 2, 3):
            nominal = min(
                cfg.max_backoff_ms,
                cfg.backoff_base_ms * cfg.backoff_factor ** (attempt - 1),
            )
            for _ in range(200):
                value = cfg.backoff_ms(attempt, rng)
                assert nominal * 0.75 <= value <= nominal * 1.25

    def test_jittered_backoff_never_exceeds_the_cap(self):
        # Regression: the jitter used to apply *after* the cap, so a
        # positive draw on a capped nominal overshot max_backoff_ms.
        cfg = SupervisorConfig(
            backoff_base_ms=4.0,
            backoff_factor=2.0,
            backoff_jitter=0.9,
            max_backoff_ms=6.0,
        )
        rng = np.random.default_rng(11)
        for attempt in range(1, 8):
            for _ in range(500):
                value = cfg.backoff_ms(attempt, rng)
                assert 0.0 <= value <= cfg.max_backoff_ms

    def test_wide_negative_jitter_clamps_at_zero(self):
        cfg = SupervisorConfig(
            backoff_base_ms=2.0, backoff_jitter=2.0, max_backoff_ms=10.0
        )
        rng = np.random.default_rng(5)
        draws = [cfg.backoff_ms(1, rng) for _ in range(500)]
        assert all(0.0 <= d <= cfg.max_backoff_ms for d in draws)
        assert min(draws) == 0.0  # the clamp actually engages

    def test_attempts_are_bounded(self, engine):
        # Permanent launch failure: the supervisor must give up after
        # 1 + max_retries attempts, not loop forever.
        plan = FaultPlan(
            scenarios=[FaultScenario(kind=FaultKind.KERNEL_LAUNCH_FAIL)]
        )
        supervisor = InferenceSupervisor(
            engine,
            injector=FaultInjector(plan),
            config=SupervisorConfig(deadline_ms=1.0, max_retries=2),
        )
        report = supervisor.serve(frames=3)
        assert all(r.attempts == 3 for r in report.records)
        assert all(not r.ok for r in report.records)
        assert report.total_retries == 6

    def test_retries_recover_transient_failures(self, engine):
        plan = FaultPlan(
            scenarios=[
                FaultScenario(
                    kind=FaultKind.KERNEL_LAUNCH_FAIL, probability=0.35
                )
            ],
            seed=5,
        )
        deadline = _healthy_ms(engine) * 3
        comparison = run_fault_comparison(
            engine,
            plan,
            config=SupervisorConfig(deadline_ms=deadline, max_retries=3),
            frames=30,
            seed=1,
        )
        assert comparison.supervised.total_retries > 0
        assert (
            comparison.supervised.failures < comparison.unsupervised.failures
        )


# ----------------------------------------------------------------------
# zero-fault pass-through
# ----------------------------------------------------------------------
class TestZeroFaultPassThrough:
    def test_supervision_is_bit_identical_when_nothing_fails(self, engine):
        streams = [StreamSpec(f"cam{i}", priority=i) for i in range(3)]
        comparison = run_fault_comparison(
            engine,
            zero_fault_plan(),
            streams=streams,
            config=SupervisorConfig(deadline_ms=_healthy_ms(engine) * 2),
            frames=8,
            seed=4,
        )
        sup = comparison.supervised.records
        uns = comparison.unsupervised.records
        assert [r.latency_ms for r in sup] == [r.latency_ms for r in uns]
        assert [r.output_digest for r in sup] == [
            r.output_digest for r in uns
        ]
        assert comparison.supervised.deadline_hit_rate == 1.0
        assert comparison.supervised.total_retries == 0
        assert comparison.supervised.dropped_frames == 0
        assert len(comparison.supervised.fault_log) == 0

    def test_replay_same_seed_is_identical(self, engine):
        def run():
            supervisor = InferenceSupervisor(
                engine,
                injector=FaultInjector(zero_fault_plan()),
                config=SupervisorConfig(
                    deadline_ms=_healthy_ms(engine) * 2
                ),
                seed=7,
            )
            return supervisor.serve(frames=5).records

        assert run() == run()


# ----------------------------------------------------------------------
# watchdog
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_hung_kernel_is_cut_at_budget(self, engine):
        plan = FaultPlan(
            scenarios=[
                FaultScenario(
                    kind=FaultKind.KERNEL_HANG, severity=5, amplitude=500.0
                )
            ]
        )
        deadline = _healthy_ms(engine) * 1.5
        config = SupervisorConfig(
            deadline_ms=deadline, watchdog_factor=3.0, max_retries=1
        )
        supervised = InferenceSupervisor(
            engine,
            injector=FaultInjector(plan),
            config=config,
            supervised=True,
        ).serve(frames=3)
        unsupervised = InferenceSupervisor(
            engine,
            injector=FaultInjector(plan),
            config=config,
            supervised=False,
        ).serve(frames=3)
        budget = config.watchdog_ms * 2 + config.max_backoff_ms
        assert all(r.latency_ms <= budget for r in supervised.records)
        # The unsupervised baseline eats the whole hang.
        assert max(
            r.latency_ms for r in unsupervised.records
        ) > config.watchdog_ms * 2
        assert any(
            "watchdog" in action for _, action in supervised.actions
        )


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def _plan(self):
        return FaultPlan(
            scenarios=[
                FaultScenario(
                    kind=FaultKind.OOM,
                    start_s=0.2,
                    duration_s=0.4,
                    severity=5,
                    amplitude=0.995,  # leaves room for ~1 stream
                )
            ]
        )

    def test_sheds_lowest_priority_first(self, engine):
        streams = [
            StreamSpec("arterial", priority=2),
            StreamSpec("side_street", priority=1),
            StreamSpec("alley", priority=0),
        ]
        supervisor = InferenceSupervisor(
            engine,
            streams=streams,
            injector=FaultInjector(self._plan()),
            config=SupervisorConfig(
                deadline_ms=_healthy_ms(engine) * 2
            ),
        )
        report = supervisor.serve(frames=20)
        during = [r for r in report.records if 0.2 <= r.t_s < 0.6]
        shed = {r.stream for r in during if r.dropped}
        kept = {r.stream for r in during if not r.dropped}
        assert "arterial" in kept
        assert "alley" in shed
        # Outside the window every stream is served again (skip the
        # boundary frame: 0.2 + 0.4 lands a float ulp past 0.6).
        after = [r for r in report.records if r.t_s >= 0.65]
        assert not any(r.dropped for r in after)
        assert any("readmitted" in a for _, a in report.actions)

    def test_resident_ladder_counts_against_the_stream_budget(
        self, engine, lite_engine
    ):
        """Regression: the engine ladder's resident bytes were billed
        only against the EnginePool budget while admission control
        divided the full USABLE_RAM_FRACTION share by the per-stream
        working set — together the two could over-commit board RAM."""
        from repro.hardware.scheduler import USABLE_RAM_FRACTION

        supervisor = InferenceSupervisor(
            engine,
            streams=[StreamSpec("a")],
            fallbacks=[lite_engine],
            injector=FaultInjector(zero_fault_plan()),
        )
        resident = supervisor._resident_engine_mb()
        assert resident == pytest.approx(
            (engine.size_bytes + lite_engine.size_bytes)
            / (1024.0 * 1024.0)
        )
        fit = supervisor._streams_that_fit()
        usable = XAVIER_NX.ram_gb * 1024.0 * USABLE_RAM_FRACTION
        # Combined commitment — residency plus admitted working sets —
        # stays inside the one usable budget...
        assert resident + fit * supervisor._per_stream_mb <= usable
        # ...and admitting one more stream would burst it.
        assert (
            resident + (fit + 1) * supervisor._per_stream_mb > usable
        )

    def test_unsupervised_baseline_fails_everyone(self, engine):
        supervisor = InferenceSupervisor(
            engine,
            streams=[StreamSpec("a"), StreamSpec("b")],
            injector=FaultInjector(self._plan()),
            config=SupervisorConfig(
                deadline_ms=_healthy_ms(engine) * 2
            ),
            supervised=False,
        )
        report = supervisor.serve(frames=20)
        during = [r for r in report.records if 0.2 <= r.t_s < 0.6]
        assert during
        assert all(
            not r.ok and r.fault == "oom" and not r.dropped for r in during
        )


# ----------------------------------------------------------------------
# fallback ladder
# ----------------------------------------------------------------------
class TestFallbackLadder:
    def test_throttle_engages_fallback_and_keeps_deadline(
        self, lite_engine
    ):
        # A compute-heavier primary so DVFS throttling actually bites.
        primary = EngineBuilder(XAVIER_NX, BuilderConfig(seed=0)).build(
            make_small_cnn(seed=1, input_size=48)
        )
        plan = FaultPlan(
            scenarios=[
                FaultScenario(
                    kind=FaultKind.THERMAL_THROTTLE,
                    start_s=0.2,
                    severity=5,
                    amplitude=20,  # pinned to the ladder floor
                )
            ]
        )
        deadline = _healthy_ms(primary) * 1.3
        comparison = run_fault_comparison(
            primary,
            plan,
            fallbacks=[lite_engine],
            config=SupervisorConfig(deadline_ms=deadline),
            frames=30,
            seed=2,
        )
        sup = comparison.supervised
        assert sup.fallback_occupancy > 0.5
        assert any("degraded to level 1" in a for _, a in sup.actions)
        assert (
            sup.deadline_hit_rate
            > comparison.unsupervised.deadline_hit_rate
        )


# ----------------------------------------------------------------------
# plan audit + rebuild
# ----------------------------------------------------------------------
class TestLoadOrRebuild:
    def test_intact_plan_loads_without_rebuild(
        self, engine, small_cnn, tmp_path
    ):
        from repro.engine.plan import save_plan

        path = tmp_path / "ok.plan"
        save_plan(engine, path)
        loaded, rebuilt = load_or_rebuild(
            path, small_cnn, XAVIER_NX
        )
        assert not rebuilt
        assert loaded.kernel_names() == engine.kernel_names()

    def test_corrupt_plan_triggers_rebuild_with_same_tactics(
        self, engine, small_cnn, tmp_path
    ):
        from repro.engine.plan import save_plan
        from repro.engine.timing_cache import TimingCache

        # Ship a timing cache alongside the plan (Finding 2 mitigation).
        cache = TimingCache(XAVIER_NX.name)
        shipped = EngineBuilder(
            XAVIER_NX, BuilderConfig(seed=3, timing_cache=cache)
        ).build(small_cnn)
        plan_path = tmp_path / "shipped.plan"
        cache_path = tmp_path / "shipped.timing"
        save_plan(shipped, plan_path)
        cache.save(cache_path)

        injector = FaultInjector(
            FaultPlan(
                scenarios=[FaultScenario(kind=FaultKind.PLAN_CORRUPTION)],
                seed=4,
            )
        )
        assert injector.corrupt_artifact(plan_path) is not None

        rebuilt_engine, rebuilt = load_or_rebuild(
            plan_path,
            small_cnn,
            XAVIER_NX,
            builder_config=BuilderConfig(
                seed=12345, timing_cache_path=str(cache_path)
            ),
            injector=injector,
        )
        assert rebuilt
        # The warm cache reproduces the shipped engine's tactics even
        # though the rebuild used a different seed.
        assert rebuilt_engine.kernel_names() == shipped.kernel_names()
        kinds = injector.log.kinds()
        assert FaultKind.PLAN_CORRUPTION in kinds
        rebuild_events = [
            e
            for e in injector.log.of_kind(FaultKind.PLAN_CORRUPTION)
            if e.detail("action") == "rebuild"
        ]
        assert rebuild_events

    def test_default_rebuild_uses_sidecar_cache(
        self, small_cnn, tmp_path
    ):
        """Regression: with ``builder_config=None`` the rebuild fell
        back to a cold ``BuilderConfig(seed=0)`` and silently lost the
        shipped engine's tactic bindings.  It now defaults to the
        sidecar timing cache next to the plan."""
        from repro.engine.plan import save_plan
        from repro.engine.timing_cache import TimingCache

        cache = TimingCache(XAVIER_NX.name)
        shipped = EngineBuilder(
            XAVIER_NX, BuilderConfig(seed=77, timing_cache=cache)
        ).build(small_cnn)
        plan_path = tmp_path / "shipped.plan"
        save_plan(shipped, plan_path)
        cache.save(tmp_path / "shipped.plan.timing")  # sidecar

        plan_path.write_bytes(b"garbage")  # corruption
        rebuilt_engine, rebuilt = load_or_rebuild(
            plan_path, small_cnn, XAVIER_NX  # no builder_config
        )
        assert rebuilt
        assert rebuilt_engine.kernel_names() == shipped.kernel_names()

    def test_truly_cold_rebuild_warns(self, small_cnn, tmp_path):
        plan_path = tmp_path / "orphan.plan"
        plan_path.write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning, match="rebuilding .* cold"):
            engine, rebuilt = load_or_rebuild(
                plan_path, small_cnn, XAVIER_NX
            )
        assert rebuilt
        assert engine.num_kernels > 0

    def test_store_backed_rebuild_hits_the_store(
        self, small_cnn, tmp_path
    ):
        """With an EngineStore attached, a corruption-triggered
        rebuild is a warm store operation, not a fresh auction."""
        from repro.engine import EngineStore

        store = EngineStore(tmp_path / "store")
        cached, _ = store.get_or_build(
            small_cnn, XAVIER_NX, BuilderConfig(seed=5)
        )
        plan_path = tmp_path / "served.plan"
        plan_path.write_bytes(b"garbage")
        engine, rebuilt = load_or_rebuild(
            plan_path,
            small_cnn,
            XAVIER_NX,
            builder_config=BuilderConfig(seed=5),
            store=store,
        )
        assert rebuilt
        assert engine.kernel_names() == cached.kernel_names()
        assert store.hits == 1


class TestSupervisorFromStore:
    def test_ladder_from_store_is_warm_on_restart(
        self, small_cnn, tmp_path
    ):
        from repro.engine import EngineStore

        lite = make_small_cnn(
            seed=1, with_dead_branch=False, input_size=8
        )
        store = EngineStore(tmp_path / "store")
        sup1 = InferenceSupervisor.from_store(
            store, small_cnn, XAVIER_NX, fallback_networks=[lite],
            seed=0,
        )
        assert store.misses == 2 and store.hits == 0
        # 'Restart': a second supervisor re-acquires the whole ladder
        # as warm hits with identical bindings.
        sup2 = InferenceSupervisor.from_store(
            store, small_cnn, XAVIER_NX, fallback_networks=[lite],
            seed=0,
        )
        assert store.hits == 2
        assert [e.kernel_names() for e in sup1.engines] == [
            e.kernel_names() for e in sup2.engines
        ]
        # Both serve; zero-fault runs are identical request-for-request.
        r1 = sup1.serve(frames=3)
        r2 = sup2.serve(frames=3)
        assert [r.output_digest for r in r1.records] == [
            r.output_digest for r in r2.records
        ]


# ----------------------------------------------------------------------
# end-to-end acceptance: thermal + OOM on the traffic app
# ----------------------------------------------------------------------
class TestTrafficAppResilience:
    def test_supervised_hit_rate_at_least_2x_unsupervised(self, lite_engine):
        from repro.apps.traffic import run_fault_scenario

        detector = EngineBuilder(XAVIER_NX, BuilderConfig(seed=0)).build(
            make_small_cnn(seed=1, input_size=48)
        )
        plan = FaultPlan(
            scenarios=[
                FaultScenario(
                    kind=FaultKind.THERMAL_THROTTLE,
                    start_s=0.2,
                    duration_s=2.0,
                    severity=5,
                    amplitude=20,
                ),
                FaultScenario(
                    kind=FaultKind.OOM,
                    start_s=0.6,
                    duration_s=0.6,
                    severity=5,
                    amplitude=0.99,
                ),
            ],
            seed=0,
            name="thermal_oom_e2e",
        )
        healthy = _healthy_ms(detector)
        comparison = run_fault_scenario(
            detector,
            plan,
            fallbacks=[lite_engine],
            deadline_ms=healthy * 1.3,
            frames=45,
            seed=0,
        )
        sup = comparison.supervised
        uns = comparison.unsupervised
        assert sup.deadline_hit_rate >= 2 * uns.deadline_hit_rate
        assert uns.deadline_hit_rate > 0  # baseline isn't degenerate
        assert sup.fallback_occupancy > 0
        assert sup.dropped_frames > 0  # admission control engaged
        assert uns.failures > 0  # baseline OOM-failed outright
        # Both runs saw the identical injected fault world (the
        # supervised log additionally carries 'observed' shed actions).
        def injected(log):
            return [
                d for d in log.to_dicts() if d["scenario"] != "observed"
            ]

        assert injected(comparison.supervised.fault_log) == injected(
            comparison.unsupervised.fault_log
        )

    def test_adas_single_stream_scenario_runs(self, engine):
        from repro.apps.adas import run_fault_scenario

        plan = FaultPlan(
            scenarios=[
                FaultScenario(
                    kind=FaultKind.COMPUTE_NAN, probability=0.2, severity=3
                )
            ],
            seed=6,
        )
        comparison = run_fault_scenario(
            engine, plan, deadline_ms=33.0, frames=15, seed=1
        )
        assert comparison.supervised.requests == 15
        assert comparison.supervised.failures <= (
            comparison.unsupervised.failures
        )
        assert comparison.supervised.total_retries > 0
