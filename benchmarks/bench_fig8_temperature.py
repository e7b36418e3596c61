"""Figure 8: SDC occurrence frequency (log scale) vs temperature.

Paper fits, least squares on log10(frequency):

* (a) MIX1 pcore0, testcase C: r = 0.7903 over ~66-76 °C
* (b) MIX2 pcore1, testcase C: r = 0.9243 over ~56-68 °C
* (c) FPU2 pcore8, testcase L: r = 0.8855 over ~48-56 °C

The sweep uses the §5 methodology: preheat (pin) the core at each
temperature, run the failed testcase repeatedly, count errors/minute.
"""

from repro.analysis import render_table, temperature_sweep
from repro.testing import ToolchainRunner

from conftest import run_once

SWEEPS = (
    # (cpu, hot instruction to pick the testcase, paper r).  The swept
    # core is the strongest of the defect's cores — the study likewise
    # measured the core where the SDC actually reproduces (an all-core
    # defect's weak cores are orders of magnitude slower, Obs. 4).
    ("MIX1", "VFMA_F32", 0.7903),
    ("MIX2", "VADD_F32", 0.9243),
    ("FPU2", "FATAN_F64X", 0.8855),
)


def _loop_for(library, mnemonic):
    return next(
        tc
        for tc in library.loops()
        if tc.instruction_mix.get(mnemonic, 0) >= 0.5
    )


def _run_sweep(catalog, library, cpu, mnemonic):
    """One Figure-8 sweep on the CPU's strongest defective core."""
    runner = ToolchainRunner(catalog[cpu])
    defect = catalog[cpu].defects[0]
    pcore = max(defect.core_ids, key=lambda c: defect.core_multiplier(c))
    testcase = _loop_for(library, mnemonic)
    # Sweep the pre-saturation ramp just above the setting's minimum
    # triggering temperature — the region where the paper could collect
    # data (frequencies plateau above it).
    behaviour = runner.trigger.behaviour(defect, testcase.testcase_id)
    low = behaviour.tmin_c + 0.5
    high = behaviour.tmin_c + runner.trigger.ramp_cap_c - 0.5
    temps = [low + i * (high - low) / 7.0 for i in range(8)]
    sweep = temperature_sweep(
        runner, testcase, temps, duration_s=2400.0, pcore_id=pcore
    )
    return sweep, sweep.fit()


def test_fig8_frequency_vs_temperature(benchmark, catalog, library):
    def measure():
        results = [
            _run_sweep(catalog, library, cpu, mnemonic)
            for cpu, mnemonic, _ in SWEEPS
        ]
        return {
            cpu: (sweep, fit, paper_r)
            for (cpu, _, paper_r), (sweep, fit) in zip(SWEEPS, results)
        }

    fits = run_once(benchmark, measure)

    print()
    rows = []
    for cpu, (sweep, fit, paper_r) in fits.items():
        rows.append(
            (
                cpu,
                sweep.testcase_id,
                f"pcore{sweep.pcore_id}",
                "-" if fit is None else f"{fit.slope:.3f}",
                "-" if fit is None else f"{fit.pearson_r:.4f}",
                f"{paper_r:.4f}",
                "-"
                if sweep.observed_min_trigger_temp() is None
                else f"{sweep.observed_min_trigger_temp():.1f}",
            )
        )
    print(
        render_table(
            ("CPU", "testcase", "core", "slope", "r", "paper r", "min T"),
            rows,
            title="Figure 8 — log10(occurrence frequency) vs temperature",
        )
    )

    fitted = [fit for _, (sweep, fit, _) in fits.items() if fit is not None]
    assert len(fitted) >= 2
    for fit in fitted:
        # Exponential temperature dependence: positive slope, strong
        # linear correlation in log space (paper: r > 0.75).
        assert fit.slope > 0.05
        assert fit.pearson_r > 0.7
