"""``screen-protect``: the Farron/toolchain stack in three phases.

One round runs, in order:

* **A** — one 633-testcase, 60 s-per-testcase equal-allocation plan on
  a 200-lane delivery batch (40 faulty CPUs from a failure-rate-scale-40
  fleet plus 160 healthy clones) through
  ``TestFramework(engine="batch").execute_batch``;
* **B** — Figure 11's coverage evaluation with the default scalar
  ``TestFramework`` on MIX1 and CNST1: the known failing settings once
  per CPU, then ``coverage_experiment`` for Farron and for the
  baseline;
* **C** — ``simulate_online_batch`` over the six Table 4 CPUs for 24
  simulated hours, protected, ``dt_s=5``.

The delivery batch is fixed; each round draws fresh runner, framework
and online seeds from the workload seed, so no round can reuse
another's work.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass

from harness import Probe, derive_seed, digest, layer_metrics, median, peak_rss_mb, run_rounds

SIZES = {
    "full": {"lanes": 200, "faulty": 40, "fleet": 60_000, "hours": 24.0, "sampled_lanes": 6},
    "tiny": {"lanes": 12, "faulty": 4, "fleet": 20_000, "hours": 2.0, "sampled_lanes": 2},
}
FLEET_SCALE = 40.0
#: The delivery batch is ``bench_perf_toolchain``'s: a fixed fleet, so
#: the batch's defect mix (and with it memory and work) is the same in
#: every run; the workload seed drives every runner, framework and
#: online seed.
DELIVERY_FLEET_SEED = 7
PER_TESTCASE_S = 60.0
COVERAGE_CPUS = ("MIX1", "CNST1")
ONLINE_CPUS = ("MIX1", "SIMD1", "FPU1", "FPU2", "CNST1", "CNST2")
#: Table 4 CPUs whose steady applications never trigger control.
STEADY_CPUS = ("FPU1", "FPU2", "CNST2")
#: The baseline's test overhead (Table 4), in percent.
BASELINE_OVERHEAD_PERCENT = 0.488
TOP = "bench.round"


@dataclass
class State:
    seed: int
    size: dict
    library: object
    library_build_s: float
    catalog: dict
    batch: list
    plan: object
    apps: list


def _app_for(name: str):
    """Table 4's application profile per CPU: spiky applications for the
    CPUs with nonzero control overhead, steady ones for the rest."""
    from repro.core import ApplicationProfile
    from repro.cpu import Feature

    spiky = name in ("MIX1", "SIMD1", "CNST1")
    usage = {
        "MIX1": {"VFMA_F32": 9.0e5},
        "SIMD1": {"VFMA_F32": 9.0e5},
        "FPU1": {"FATAN_F64X": 8.0e5},
        "FPU2": {"FATAN_F64X": 8.0e5},
        "CNST1": {},
        "CNST2": {},
    }[name]
    return ApplicationProfile(
        name=f"app-{name}",
        features=frozenset({Feature.VECTOR, Feature.FPU, Feature.TRX_MEM}),
        instruction_usage=usage,
        consistency_ops_per_s=9.0e5 if name.startswith("CNST") else 0.0,
        spike_utilization=0.9 if spiky else 0.35,
        spike_period_s=12 * 3600.0,
        spike_duration_s=60.0,
    )


def setup(seed: int, size: str) -> State:
    from repro.cpu import full_catalog
    from repro.fleet import FleetSpec, generate_fleet
    from repro.testing import TestFramework, build_library

    sizes = SIZES[size]
    start = time.perf_counter()
    library = build_library()
    build_s = time.perf_counter() - start
    fleet = generate_fleet(FleetSpec(
        total_processors=sizes["fleet"],
        failure_rate_scale=FLEET_SCALE,
        seed=DELIVERY_FLEET_SEED,
    ))
    faulty = fleet.faulty[: sizes["faulty"]]
    healthy = [
        dataclasses.replace(faulty[0], processor_id=f"H-{index:04d}", defects=())
        for index in range(sizes["lanes"] - len(faulty))
    ]
    plan = TestFramework(library).equal_allocation_plan(PER_TESTCASE_S)
    return State(
        seed, sizes, library, build_s, full_catalog(), faulty + healthy, plan,
        [_app_for(name) for name in ONLINE_CPUS],
    )


def teardown(state: State) -> None:
    pass


def _round(state: State, index: int, probe: Probe) -> dict:
    from repro.core import coverage_experiment, simulate_online_batch
    from repro.testing import TestFramework

    seed_a = derive_seed(state.seed, "screen", index)
    seed_b = derive_seed(state.seed, "coverage", index)
    seed_c = derive_seed(state.seed, "online", index)
    library = state.library
    with probe.span(TOP):
        start = time.perf_counter()
        with probe.span("testing.framework.execute_batch"):
            framework = TestFramework(library, seed=seed_a, engine="batch")
            reports = framework.execute_batch(state.plan, state.batch)
        phase_a = time.perf_counter()
        coverage = {}
        for name in COVERAGE_CPUS:
            cpu = state.catalog[name]
            with probe.span("testing.framework.known_failing"):
                known = TestFramework(library, seed=seed_b).known_failing_settings(cpu)
            for strategy in ("farron", "baseline"):
                with probe.span(f"core.evaluation.coverage_{strategy}"):
                    coverage[name, strategy] = coverage_experiment(
                        cpu, library, strategy, known=known,
                        framework=TestFramework(library, seed=seed_b),
                    )
        phase_b = time.perf_counter()
        with probe.span("core.batch_online.simulate"):
            online = simulate_online_batch(
                [state.catalog[name] for name in ONLINE_CPUS], state.apps,
                hours=state.size["hours"], protected=True, library=library,
                dt_s=5.0, seed=seed_c,
            )
        phase_c = time.perf_counter()
    if probe.active:
        probe.counts["testing.batch.lanes"] += len(state.batch)
    return {
        "seeds": (seed_a, seed_b, seed_c),
        "reports": reports,
        "coverage": coverage,
        "online": dict(zip(ONLINE_CPUS, online)),
        "phase_s": (phase_a - start, phase_b - phase_a, phase_c - phase_b),
    }


def _report_key(report):
    return (
        report.processor_id,
        report.total_duration_s,
        [dataclasses.asdict(run) for run in report.runs],
        report.store.records,
        report.store.consistency_records,
    )


def _counts(out: dict) -> dict:
    coverage = out["coverage"]
    farron = [coverage[name, "farron"] for name in COVERAGE_CPUS]
    return {
        "testing.records.sdc_records": sum(len(r.store.records) for r in out["reports"]),
        "core.evaluation.coverage": (
            sum(r.detected_settings for r in farron) / sum(r.known_settings for r in farron)
        ),
        "core.evaluation.coverage_digest": digest(
            [dataclasses.asdict(result) for _, result in sorted(coverage.items())]
        ),
        "core.batch_online.control_overhead": sum(
            result.control_overhead for result in out["online"].values()
        ),
        "core.batch_online.digest": digest(
            {name: repr(dataclasses.asdict(result)) for name, result in out["online"].items()}
        ),
    }


def _check(state: State, out: dict) -> list:
    """Oracle parity on sampled lanes and the paper's Table 4 / Figure 11
    shapes, on one finished round (outside the timed region)."""
    from repro.testing import TestFramework
    from repro.units import THREE_MONTHS_SECONDS

    problems = []
    seed_a = out["seeds"][0]
    lanes = random.Random(seed_a).sample(range(len(state.batch)), state.size["sampled_lanes"])
    oracle = TestFramework(state.library, seed=seed_a)
    for lane in sorted(lanes):
        expected = oracle.execute(state.plan, state.batch[lane])
        if _report_key(expected) != _report_key(out["reports"][lane]):
            problems.append(f"screen-protect: batch lane {lane} differs from ToolchainRunner")
    for name in COVERAGE_CPUS:
        farron = out["coverage"][name, "farron"]
        baseline = out["coverage"][name, "baseline"]
        if farron.detected_settings < baseline.detected_settings:
            problems.append(f"screen-protect: {name} Farron coverage below the baseline's")
        total = farron.round_duration_s / THREE_MONTHS_SECONDS + out["online"][name].control_overhead
        if not total * 100 < BASELINE_OVERHEAD_PERCENT:
            problems.append(
                f"screen-protect: {name} Farron overhead {total * 100:.3f}% is not "
                f"below the baseline's {BASELINE_OVERHEAD_PERCENT}%"
            )
    for name in STEADY_CPUS:
        if out["online"][name].control_overhead != 0.0:
            problems.append(f"screen-protect: {name} has nonzero control overhead")
    return problems


def _instrument(probe: Probe) -> None:
    from repro.faults.trigger import CompiledSetting, TriggerModel
    from repro.testing import ToolchainRunner
    from repro.thermal.batch import BatchPackageThermalModel
    from repro.thermal.model import PackageThermalModel

    probe.wrap_hot(BatchPackageThermalModel, "step_lanewise", "thermal.batch.step_lanewise")
    probe.wrap_hot(BatchPackageThermalModel, "step", "thermal.batch.step")
    probe.wrap_hot(ToolchainRunner, "run_testcase", "testing.runner.run_testcase")
    probe.wrap_hot(PackageThermalModel, "step", "thermal.model.step")
    for owner in (CompiledSetting, TriggerModel):
        probe.wrap_hot(owner, "sample_errors", "faults.trigger.sample_errors", timed=False)


def measure(state: State, seconds: float, traced: bool, run_id: str) -> dict:
    probe = Probe(run_id, enabled=traced)
    _instrument(probe)
    checks: list = []

    def summarize(index: int, traced_round: bool, wall: float, out: dict) -> dict:
        if index == 0 and not traced_round:
            checks.extend(_check(state, out))
        phase_a, phase_b, phase_c = out["phase_s"]
        return {
            "wall": wall,
            "counts": _counts(out),
            # Not gated: temperatures differ in the last bit between
            # processes (see README, "Known defect").
            "report_digest": digest([repr(_report_key(r)) for r in out["reports"]]),
            "ops": len(out["reports"]) + len(out["coverage"]) + len(out["online"]),
            "screened_cpus_per_s": len(state.batch) / phase_a,
            "farron_eval_s": phase_b,
            "protect_sim_h_per_s": len(ONLINE_CPUS) * state.size["hours"] / phase_c,
        }

    untraced, traced_rounds, problems = run_rounds(
        seconds, probe, lambda index: _round(state, index, probe), summarize,
    )
    problems = checks + problems
    attempted = sum(s["ops"] for s in untraced + traced_rounds)
    figures = {
        key: median([s[key] for s in untraced])
        for key in ("screened_cpus_per_s", "farron_eval_s", "protect_sim_h_per_s")
    }
    outcome = {
        "problems": problems,
        "counts": untraced[0]["counts"],
        "attempted": attempted,
        "failed": 0,
        "unit_latency_s": median([s["wall"] for s in untraced]),
        "peak_rss_mb": peak_rss_mb(),
        "details": {
            "round_walls_s": [s["wall"] for s in untraced],
            "traced_round_walls_s": [s["wall"] for s in traced_rounds],
            "phases": [
                {key: s[key] for key in figures} for s in untraced
            ],
            "report_digests": [s["report_digest"] for s in untraced],
        },
    }
    if traced:
        values = layer_metrics(
            probe, TOP,
            [s["wall"] for s in traced_rounds], [s["wall"] for s in untraced],
        )
        values["testing.library.build_s"] = state.library_build_s
        values.update(figures)
        values["error_rate"] = 0.0
        outcome["per_layer"] = values
        outcome["probe"] = probe
    return outcome
