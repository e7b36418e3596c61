"""Unit tests for the resilience primitives.

Counted RNG streams, retry backoff, checkpoint self-checks and
rotation, chaos scheduling, and the new configuration validation.
"""

import json

import pytest

from repro.core import BackoffController, ExponentialBackoff
from repro.core.boundary import AdaptiveTemperatureBoundary
from repro.errors import (
    CheckpointError,
    CheckpointVersionError,
    ConfigurationError,
)
from repro.fleet.pipeline import PipelineConfig, StageConfig
from repro.resilience import (
    CampaignHealthReport,
    ChaosInjector,
    CheckpointStore,
    HealthEvent,
    read_checkpoint,
    write_checkpoint,
)
from repro.rng import CountedStream, substream


# -- CountedStream ---------------------------------------------------------


def test_counted_stream_matches_raw_substream():
    stream = CountedStream(7, "pipeline")
    raw = substream(7, "pipeline")
    assert [stream.draw() for _ in range(100)] == list(raw.random(100))
    assert stream.consumed == 100


def test_counted_draw_many_equals_scalar_draws():
    a = CountedStream(7, "pipeline")
    b = CountedStream(7, "pipeline")
    many = a.draw_many(1000)
    singles = [b.draw() for _ in range(1000)]
    assert list(many) == singles
    assert a.consumed == b.consumed == 1000


def test_counted_stream_fast_forward_and_reset():
    a = CountedStream(7, "pipeline")
    b = CountedStream(7, "pipeline")
    skipped = [a.draw() for _ in range(57)]
    b.fast_forward(57)
    assert b.consumed == 57
    assert a.draw() == b.draw()
    # reset_to rewinds by rebuilding from the seed.
    a.reset_to(0)
    assert a.consumed == 0
    assert [a.draw() for _ in range(57)] == skipped


def test_counted_stream_reset_forward_and_validation():
    stream = CountedStream(7, "pipeline")
    stream.reset_to(10)
    assert stream.consumed == 10
    with pytest.raises(ValueError):
        stream.reset_to(-1)
    with pytest.raises(ValueError):
        stream.fast_forward(-5)


# -- ExponentialBackoff ----------------------------------------------------


def test_exponential_backoff_deterministic_and_capped():
    backoff = ExponentialBackoff(base_s=0.1, factor=2.0, cap_s=0.5, seed=4)
    delays = [backoff.delay_s(attempt, "shard-3") for attempt in (1, 2, 3, 9)]
    again = [backoff.delay_s(attempt, "shard-3") for attempt in (1, 2, 3, 9)]
    assert delays == again  # no wall-clock anywhere
    for attempt, delay in zip((1, 2, 3, 9), delays):
        ideal = min(0.1 * 2.0 ** (attempt - 1), 0.5)
        assert ideal * 0.5 <= delay <= ideal * 1.5  # jitter bounds
    assert backoff.delay_s(2, "other-key") != backoff.delay_s(2, "shard-3")


def test_exponential_backoff_validation():
    with pytest.raises(ConfigurationError, match="base_s"):
        ExponentialBackoff(base_s=-1.0)
    with pytest.raises(ConfigurationError, match="factor"):
        ExponentialBackoff(factor=0.5)
    with pytest.raises(ConfigurationError, match="cap_s"):
        ExponentialBackoff(base_s=1.0, cap_s=0.5)
    with pytest.raises(ConfigurationError, match="jitter"):
        ExponentialBackoff(jitter=1.5)
    with pytest.raises(ConfigurationError, match="attempt"):
        ExponentialBackoff().delay_s(0)


def test_backoff_controller_step_validation():
    controller = BackoffController(AdaptiveTemperatureBoundary())
    with pytest.raises(ConfigurationError, match="dt_s"):
        controller.step(50.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError, match="utilization"):
        controller.step(50.0, 1.0, float("nan"))
    with pytest.raises(ConfigurationError, match="utilization"):
        controller.step(50.0, 1.0, 1.5)
    with pytest.raises(ConfigurationError, match="temperature_c"):
        controller.step(float("nan"), 1.0, 1.0)
    with pytest.raises(ConfigurationError, match="hold_s"):
        BackoffController(AdaptiveTemperatureBoundary(), hold_s=float("inf"))


# -- pipeline config validation -------------------------------------------


def _stage(**overrides):
    params = dict(
        name="factory", time_days=0.0, per_testcase_s=1.0, test_temp_c=80.0
    )
    params.update(overrides)
    return StageConfig(**params)


def test_stage_config_validation():
    with pytest.raises(ConfigurationError, match="name"):
        _stage(name="")
    with pytest.raises(ConfigurationError, match="per_testcase_s"):
        _stage(per_testcase_s=0.0)
    with pytest.raises(ConfigurationError, match="per_testcase_s"):
        _stage(per_testcase_s=float("nan"))
    with pytest.raises(ConfigurationError, match="time_days"):
        _stage(time_days=-1.0)
    with pytest.raises(ConfigurationError, match="test_temp_c"):
        _stage(test_temp_c=float("inf"))
    with pytest.raises(ConfigurationError, match="recurring_days"):
        _stage(recurring_days=0.0)


def test_pipeline_config_validation():
    stage = _stage()
    with pytest.raises(ConfigurationError, match="stage"):
        PipelineConfig(stages=())
    with pytest.raises(ConfigurationError, match="horizon_days"):
        PipelineConfig(stages=(stage,), horizon_days=0.0)
    with pytest.raises(ConfigurationError, match="must be identical"):
        PipelineConfig(stages=(stage, _stage(per_testcase_s=2.0)))


# -- checkpoints -----------------------------------------------------------


PAYLOAD = {"cursor": 12, "draws": 345, "day": 1.9428902930940239e-05}


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "snap.ckpt"
    write_checkpoint(path, PAYLOAD)
    assert read_checkpoint(path) == PAYLOAD
    assert not list(tmp_path.glob("*.tmp"))  # atomic: no debris


def test_checkpoint_rejects_future_version(tmp_path):
    path = tmp_path / "snap.ckpt"
    write_checkpoint(path, PAYLOAD)
    document = json.loads(path.read_text())
    document["version"] = 999
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointVersionError, match="999"):
        read_checkpoint(path)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        read_checkpoint(tmp_path / "absent.ckpt")


def test_store_rotation_and_fallback(tmp_path):
    store = CheckpointStore(tmp_path, keep=2)
    for cursor in range(5):
        store.save({"cursor": cursor})
    names = [path.name for path in store.paths()]
    assert names == ["campaign-000004.ckpt", "campaign-000005.ckpt"]
    assert store.load_latest()["cursor"] == 4

    # Corrupt the newest: the loader falls back and records it.
    newest = store.paths()[-1]
    newest.write_bytes(newest.read_bytes()[:10])
    health = CampaignHealthReport()
    assert store.load_latest(health)["cursor"] == 3
    assert health.count("checkpoint_fallback") == 1

    # Corrupt both: nothing usable.
    oldest = store.paths()[0]
    oldest.write_bytes(b"garbage")
    assert store.load_latest() is None


# -- chaos injector --------------------------------------------------------


def test_chaos_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown chaos fault"):
        ChaosInjector({0: ["meteor_strike"]})


def test_chaos_fires_each_fault_once():
    chaos = ChaosInjector({2: ["parity_trip"]})
    assert chaos.parity_trip(1) is False
    assert chaos.parity_trip(2) is True
    assert chaos.parity_trip(2) is False  # a crash does not reproduce
    assert chaos.fired == {(2, "parity_trip")}
    assert chaos.pending() == {}


def test_chaos_seeded_schedule_is_deterministic():
    a = ChaosInjector.seeded(42, shard_count=20, rate=0.4)
    b = ChaosInjector.seeded(42, shard_count=20, rate=0.4)
    assert a.schedule == b.schedule
    assert a.schedule  # rate 0.4 over 120 slots: practically certain
    assert ChaosInjector.seeded(43, shard_count=20, rate=0.4).schedule != a.schedule


def test_chaos_records_into_health():
    chaos = ChaosInjector({0: ["parity_trip"]})
    chaos.health = CampaignHealthReport()
    chaos.parity_trip(0)
    assert chaos.health.faults == 1


# -- health report ---------------------------------------------------------


def test_health_report_round_trip():
    report = CampaignHealthReport()
    report.record("fault", "injected kill", shard=3)
    report.record("retry", "attempt 1", shard=3)
    clone = CampaignHealthReport.from_dict(report.to_dict())
    assert clone.events == report.events
    assert clone.events[0] == HealthEvent("fault", "injected kill", shard=3)
    assert "faults=1" in clone.summary()


# -- dt_s validation in simulators -----------------------------------------


def test_runner_rejects_degenerate_dt(framework, named):
    from repro.testing.runner import ToolchainRunner

    runner = ToolchainRunner(named["MIX1"])
    testcase = next(iter(framework.library))
    with pytest.raises(ConfigurationError, match="dt_s"):
        runner.run_testcase(testcase, duration_s=60.0, dt_s=0.0)
    with pytest.raises(ConfigurationError, match="duration_s"):
        runner.run_testcase(testcase, duration_s=float("nan"))


def test_simulate_online_rejects_degenerate_dt(library, named):
    from repro.core import ApplicationProfile, simulate_online
    from repro.cpu import Feature

    app = ApplicationProfile(
        name="x",
        features=frozenset({Feature.VECTOR}),
        instruction_usage={"VFMA_F32": 1.0},
    )
    with pytest.raises(ConfigurationError, match="dt_s"):
        simulate_online(
            named["MIX1"], app, hours=1.0, library=library, dt_s=0.0
        )
    with pytest.raises(ConfigurationError, match="hours"):
        simulate_online(
            named["MIX1"], app, hours=float("inf"), library=library
        )
