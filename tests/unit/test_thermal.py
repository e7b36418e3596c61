"""Unit tests for the thermal substrate."""

import numpy as np
import pytest

from repro.cpu import ARCHITECTURES
from repro.errors import ConfigurationError
from repro.thermal import (
    BatchPackageThermalModel,
    CoolingDevice,
    FanCurveController,
    PackageThermalModel,
    StressTool,
    TemperatureMonitor,
    ThermalParams,
)


@pytest.fixture()
def model():
    return PackageThermalModel(ARCHITECTURES["M2"])


class TestEquilibria:
    def test_idle_near_45c(self, model):
        # The paper quotes ~45 °C idle temperature (§5).
        assert model.package_temp == pytest.approx(45.0, abs=1.0)

    def test_full_load_hotter(self, model):
        idle = model.equilibrium_package_temp(0.0)
        loaded = model.equilibrium_core_temp(1.0, heat_factor=1.0)
        assert loaded > idle + 5.0

    def test_core_temp_includes_local_delta(self, model):
        pkg_only = model.equilibrium_package_temp(
            model.dynamic_budget_per_core
        )
        with_delta = model.equilibrium_core_temp(1.0, 1.0)
        assert with_delta > pkg_only


class TestDynamics:
    def test_heats_under_load(self, model):
        start = model.package_temp
        model.step(60.0, {0: (1.0, 1.5)})
        assert model.package_temp > start

    def test_cools_when_idle(self, model):
        model.step(600.0, {c: (1.0, 1.5) for c in range(16)})
        hot = model.package_temp
        model.step(600.0, {})
        assert model.package_temp < hot

    def test_remaining_heat_persists(self, model):
        # Observation 10's test-order effect needs a slow decay.
        model.step(600.0, {c: (1.0, 1.5) for c in range(16)})
        hot = model.package_temp
        model.step(30.0, {})
        assert model.package_temp > (hot + model.params.ambient_c) / 2

    def test_busy_neighbours_heat_idle_core(self, model):
        idle_temp = model.core_temp(0)
        loads = {c: (1.0, 1.4) for c in range(1, 16)}  # core 0 idle
        model.step(900.0, loads)
        assert model.core_temp(0) > idle_temp + 10.0

    def test_more_busy_neighbours_hotter(self):
        arch = ARCHITECTURES["M2"]
        temps = []
        for n_busy in (2, 8, 15):
            model = PackageThermalModel(arch)
            stress = StressTool(model)
            model.step(900.0, stress.busy_neighbours(0, n_busy))
            temps.append(model.core_temp(0))
        assert temps[0] < temps[1] < temps[2]

    def test_run_to_equilibrium_converges(self, model):
        model.run_to_equilibrium({0: (1.0, 1.0)})
        target = model.equilibrium_core_temp(1.0, 1.0)
        assert model.core_temp(0) == pytest.approx(target, abs=0.5)

    def test_invalid_inputs(self, model):
        with pytest.raises(ConfigurationError):
            model.step(-1.0, {})
        with pytest.raises(ConfigurationError):
            model.step(1.0, {0: (2.0, 1.0)})
        with pytest.raises(ConfigurationError):
            model.step(1.0, {99: (1.0, 1.0)})
        with pytest.raises(ConfigurationError):
            model.core_temp(99)

    def test_reset(self, model):
        model.step(600.0, {0: (1.0, 1.5)})
        model.reset()
        assert model.package_temp == pytest.approx(45.0, abs=1.0)
        assert model.elapsed_s == 0.0


class TestClosedFormLaw:
    def test_long_step_converges_to_equilibrium(self, model):
        model.step(10_000.0, {0: (1.0, 1.0)})
        target = model.equilibrium_core_temp(1.0, 1.0)
        assert model.core_temp(0) == pytest.approx(target, abs=1e-9)

    def test_steps_compose(self):
        arch = ARCHITECTURES["M2"]
        loads = {c: (0.7, 1.3) for c in range(0, 16, 3)}
        split, whole = PackageThermalModel(arch), PackageThermalModel(arch)
        split.step(3.7, loads)
        split.step(6.1, loads)
        whole.step(3.7 + 6.1, loads)
        assert split.package_temp == pytest.approx(
            whole.package_temp, abs=1e-9
        )
        for a, b in zip(split.core_temps(), whole.core_temps()):
            assert a == pytest.approx(b, abs=1e-9)

    def test_step_far_above_tau_neither_overshoots_nor_oscillates(
        self, model
    ):
        # Explicit Euler with dt > 2*tau would flip sign around the
        # equilibrium; the exact law only ever relaxes toward it.
        model.step(600.0, {c: (1.0, 1.5) for c in range(16)})
        idle = model.equilibrium_package_temp(0.0)
        previous = model.package_temp
        for _ in range(5):
            model.step(50_000.0, {})
            assert idle <= model.package_temp <= previous
            assert all(d == 0.0 for d in model._deltas)
            previous = model.package_temp
        assert model.package_temp == pytest.approx(idle, abs=1e-9)

    def test_power_memo_skips_unchanged_loads(self, model, monkeypatch):
        calls = []
        real = model._core_power

        def counting(utilization, heat_factor):
            calls.append(utilization)
            return real(utilization, heat_factor)

        monkeypatch.setattr(model, "_core_power", counting)
        loads = {c: (1.0, 1.2) for c in range(4)}
        for _ in range(10):
            model.step(10.0, loads)
        model.step(10.0, dict(loads))
        assert len(calls) == 4
        model.step(10.0, {0: (0.5, 1.2)})
        assert len(calls) == 5

    def test_power_memo_still_validates_changed_loads(self, model):
        reference = PackageThermalModel(ARCHITECTURES["M2"])
        good = {0: (1.0, 1.2)}
        model.step(10.0, good)
        reference.step(10.0, good)
        with pytest.raises(ConfigurationError):
            model.step(10.0, {99: (1.0, 1.0)})
        with pytest.raises(ConfigurationError):
            model.step(10.0, {0: (1.5, 1.0)})
        with pytest.raises(ConfigurationError):
            model.step(10.0, {0: (1.0, -1.0)})
        # A rejected load leaves neither state nor memo behind.
        model.step(10.0, good)
        reference.step(10.0, good)
        assert model.package_temp == reference.package_temp
        assert model.core_temps() == reference.core_temps()


class TestCooling:
    def test_stronger_cooling_lowers_equilibrium(self, model):
        hot = model.equilibrium_core_temp(1.0, 1.0)
        model.set_cooling_factor(0.7)
        assert model.equilibrium_core_temp(1.0, 1.0) < hot

    def test_cooling_device_levels(self, model):
        device = CoolingDevice(model)
        device.set_level(3)
        assert model.cooling_factor == pytest.approx(0.88**3)
        with pytest.raises(ConfigurationError):
            device.set_level(99)

    def test_fan_curve_raises_level_when_hot(self, model):
        device = CoolingDevice(model)
        controller = FanCurveController(device, high_c=60.0, low_c=50.0)
        model.step(900.0, {c: (1.0, 1.5) for c in range(16)})
        controller.update()
        assert device.level == 1

    def test_fan_curve_validation(self, model):
        device = CoolingDevice(model)
        with pytest.raises(ConfigurationError):
            FanCurveController(device, high_c=50.0, low_c=60.0)


class TestStressTool:
    def test_preheat_reaches_target(self, model):
        stress = StressTool(model)
        assert stress.preheat_to(70.0, monitor_core=0)
        assert model.core_temp(0) >= 70.0

    def test_preheat_unreachable_returns_false(self, model):
        stress = StressTool(model)
        assert not stress.preheat_to(200.0, monitor_core=0, timeout_s=120.0)

    def test_busy_neighbours_keeps_victim_idle(self, model):
        stress = StressTool(model)
        loads = stress.busy_neighbours(3, 5)
        assert 3 not in loads
        assert len(loads) == 5


class TestMonitor:
    def test_window_bounded(self, model):
        monitor = TemperatureMonitor(model, core_id=0, window=4)
        for _ in range(10):
            monitor.sample()
            model.step(5.0, {0: (1.0, 1.5)})
        assert len(monitor.readings) == 4

    def test_fraction_above(self, model):
        monitor = TemperatureMonitor(model, core_id=0, window=8)
        monitor.sample()  # ~45
        model.step(900.0, {c: (1.0, 1.5) for c in range(16)})
        monitor.sample()  # hot
        assert monitor.fraction_above(50.0) == pytest.approx(0.5)
        assert monitor.fraction_above(200.0) == 0.0

    def test_latest(self, model):
        monitor = TemperatureMonitor(model, core_id=0)
        assert monitor.latest is None
        sample = monitor.sample()
        assert monitor.latest == sample


def test_batch_thermal_bit_identical_to_scalar(catalog):
    processors = [catalog[name] for name in ("MIX1", "SIMD1", "FPU2", "CNST1")]
    archs = [p.arch for p in processors]
    batch = BatchPackageThermalModel(archs)
    scalars = [PackageThermalModel(arch) for arch in archs]
    utils = [0.2, 0.9, 0.55, 1.0]
    heats = [1.0, 1.6, 0.8, 1.2]
    for step in range(25):
        # 6.0 s and 2.1 s round differently under NumPy's exp and libm.
        dt = 6.0 if step % 3 else 2.1
        if step == 12:  # a cooling change moves the package time constant
            batch.cooling_factor = 0.75
            for scalar in scalars:
                scalar.set_cooling_factor(0.75)
        powers = batch.core_powers(np.array(utils), np.array(heats))
        batch.step(dt, powers)
        for lane, scalar in enumerate(scalars):
            scalar.step(
                dt,
                {
                    c: (utils[lane], heats[lane])
                    for c in range(archs[lane].physical_cores)
                },
            )
        utils = [(u * 7919) % 1.0 for u in utils]  # vary the load
    temps = batch.core_temps()
    assert batch.elapsed_s == scalars[0].elapsed_s
    for lane, scalar in enumerate(scalars):
        assert batch.t_package[lane] == scalar.package_temp
        assert temps[lane, : archs[lane].physical_cores].tolist() == (
            scalar.core_temps()
        )
