"""Unit tests for the §7.2 evaluation harness pieces."""

import pytest

from repro.core import (
    ApplicationProfile,
    CoverageResult,
    simulate_online,
    simulate_online_batch,
)
from repro.core.evaluation import coverage_experiment
from repro.core.farron import Farron
from repro.cpu import ARCHITECTURES, Feature, Processor
from repro.errors import ConfigurationError


class TestApplicationProfile:
    def make_app(self, **overrides):
        params = dict(
            name="app",
            features=frozenset({Feature.FPU}),
            instruction_usage={"FATAN_F64X": 8.0e5},
        )
        params.update(overrides)
        return ApplicationProfile(**params)

    def test_spikes_land_at_period_end(self):
        app = self.make_app(
            base_utilization=0.3,
            spike_utilization=0.9,
            spike_period_s=1000.0,
            spike_duration_s=100.0,
        )
        assert app.requested_utilization(0.0) == 0.3
        assert app.requested_utilization(450.0) == 0.3
        assert app.requested_utilization(950.0) == 0.9
        assert app.requested_utilization(1450.0) == 0.3

    def test_zero_period_means_steady(self):
        app = self.make_app(spike_period_s=0.0)
        assert app.requested_utilization(12345.0) == app.base_utilization


class TestCoverageResult:
    def test_coverage_math(self):
        result = CoverageResult("P", "farron", 10, 7, 3600.0)
        assert result.coverage == pytest.approx(0.7)

    def test_zero_known_is_nan(self):
        import math

        result = CoverageResult("P", "farron", 0, 0, 3600.0)
        assert math.isnan(result.coverage)


class TestSimulateOnline:
    def test_healthy_processor_never_sdc(self, library):
        app = ApplicationProfile(
            name="clean",
            features=frozenset({Feature.FPU}),
            instruction_usage={"FATAN_F64X": 8.0e5},
        )
        healthy = Processor("H", ARCHITECTURES["M5"])
        result = simulate_online(
            healthy, app, hours=2, protected=True, library=library
        )
        assert result.sdc_count == 0

    def test_requires_farron_or_library(self, catalog):
        app = ApplicationProfile(
            name="x",
            features=frozenset({Feature.FPU}),
            instruction_usage={},
        )
        with pytest.raises(ConfigurationError):
            simulate_online(catalog["FPU1"], app, hours=1)

    def test_invalid_hours(self, catalog, library):
        app = ApplicationProfile(
            name="x",
            features=frozenset({Feature.FPU}),
            instruction_usage={},
        )
        with pytest.raises(ConfigurationError):
            simulate_online(
                catalog["FPU1"], app, hours=0, library=library
            )

    def test_unknown_strategy_rejected(self, catalog, library):
        with pytest.raises(ConfigurationError):
            coverage_experiment(
                catalog["FPU1"], library, "magic", known=set()
            )


def _online_apps(processors):
    apps = []
    for i, processor in enumerate(processors):
        usage = {}
        for defect in processor.defects:
            for mnemonic in defect.instructions:
                usage[mnemonic] = 7.0e5 + 1.0e5 * (i % 3)
        apps.append(ApplicationProfile(
            name=f"lane{i}",
            features=frozenset({Feature.VECTOR, Feature.FPU}),
            instruction_usage=usage,
            heat_factor=1.0 + 0.3 * (i % 2),
            spike_period_s=900.0 if i % 2 else 0.0,
            spike_duration_s=60.0,
            consistency_ops_per_s=8.0e5 if i % 3 == 0 else 0.0,
        ))
    return apps


@pytest.mark.parametrize("protected", [True, False])
def test_simulate_online_batch_bit_identical(catalog, library, protected):
    names = ("MIX1", "MIX2", "SIMD1", "FPU1", "CNST1", "CNST2")
    processors = [catalog[name] for name in names]
    apps = _online_apps(processors)
    scalar = [
        simulate_online(
            p, a, hours=1.0, protected=protected, farron=Farron(library),
            dt_s=5.0, seed=3,
        )
        for p, a in zip(processors, apps)
    ]
    batch = simulate_online_batch(
        processors, apps, hours=1.0, protected=protected, library=library,
        dt_s=5.0, seed=3,
    )
    assert len(batch) == len(scalar)
    for s, b in zip(scalar, batch):
        assert (s.processor_id, s.app_name, s.protected, s.hours) == (
            b.processor_id, b.app_name, b.protected, b.hours
        )
        assert s.sdc_count == b.sdc_count
        assert s.backoff_seconds == b.backoff_seconds
        assert s.final_boundary_c == b.final_boundary_c
        assert s.max_temp_c == b.max_temp_c
    if protected:
        assert any(s.final_boundary_c > 50.0 for s in scalar), (
            "boundary adaptation must actually engage"
        )


def test_simulate_online_batch_cooling_falls_back_to_scalar(catalog, library):
    processors = [catalog["MIX1"], catalog["FPU2"]]
    apps = _online_apps(processors)
    batch = simulate_online_batch(
        processors, apps, hours=0.25, protected=True, library=library,
        dt_s=5.0, seed=1, control="cooling",
    )
    scalar = [
        simulate_online(
            p, a, hours=0.25, protected=True, farron=Farron(library),
            dt_s=5.0, seed=1, control="cooling",
        )
        for p, a in zip(processors, apps)
    ]
    for s, b in zip(scalar, batch):
        assert s.sdc_count == b.sdc_count
        assert s.max_temp_c == b.max_temp_c


def test_simulate_online_batch_validation(catalog, library):
    mix1 = catalog["MIX1"]
    (app,) = _online_apps([mix1])
    assert simulate_online_batch([], [], library=library) == []
    with pytest.raises(ConfigurationError):
        simulate_online_batch([mix1], [], library=library)
    with pytest.raises(ConfigurationError):
        simulate_online_batch([mix1], [app], hours=-1.0, library=library)
    with pytest.raises(ConfigurationError):
        simulate_online_batch([mix1], [app], dt_s=0.0, library=library)
    with pytest.raises(ConfigurationError):
        simulate_online_batch([mix1], [app], control="magic", library=library)
    with pytest.raises(ConfigurationError):
        simulate_online_batch([mix1], [app])  # neither farron nor library
