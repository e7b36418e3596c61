"""Timing benchmark: scalar vs batch toolchain screening.

Screens one delivery batch of processors — a small faulty contingent
from a dense generated fleet plus healthy units, the composition a real
screening population has — through the full 633-testcase equal
allocation plan, once on the scalar ``TestFramework.execute`` loop and
once on the struct-of-arrays :class:`BatchScreeningEngine`.  Asserts
the two are *bit-identical* (every ``TestcaseRun`` field, every SDC and
consistency record, and each lane's RNG end state) and records the
wall-clock comparison in ``BENCH_toolchain.json`` at the repository
root.

Also measures the engine's telemetry cost both ways:

* ``enabled_overhead`` — an instrumented batch run over the silent one,
  informational (includes real sink I/O), with parity asserted again;
* ``null_overhead`` — the gated number: guard sites executed on the
  disabled path times a measured pointer-check probe, as a fraction of
  the silent run (the ``bench_perf_obs`` convention).

Parity is enforced unconditionally.  The ``--min-speedup`` gate is
applied on machines with at least 4 effective cores; smaller machines
still record honest numbers without failing.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_toolchain.py
    PYTHONPATH=src python benchmarks/bench_perf_toolchain.py \
        --processors 40 --faulty 4 --duration 30 --out /tmp/smoke.json
"""

import argparse
import dataclasses
import json
import logging
import platform
import sys
import tempfile
import time
import timeit
from pathlib import Path

import numpy as np

from repro.fleet import FleetSpec, generate_fleet
from repro.obs import Observability, logging_setup, read_trace
from repro.perf import effective_cores
from repro.testing import BatchScreeningEngine, TestFramework, build_library
from repro.testing.framework import PlanEntry, TestPlan

logger = logging.getLogger("repro.bench.perf_toolchain")


def _report_key(report):
    return (
        report.processor_id,
        report.total_duration_s,
        [dataclasses.asdict(run) for run in report.runs],
        report.store.records,
        report.store.consistency_records,
    )


def _null_probe_ns() -> float:
    """Cost of one disabled-telemetry guard (``if obs is not None``)."""
    probe = min(
        timeit.repeat(
            "if obs is not None:\n    raise AssertionError",
            setup="obs = None",
            number=1_000_000,
            repeat=5,
        )
    )
    baseline = min(timeit.repeat("pass", number=1_000_000, repeat=5))
    return max((probe - baseline) * 1e9 / 1_000_000, 1.0)


def _population(args):
    """A screening batch: fleet faulty contingent + healthy units."""
    spec = FleetSpec(
        total_processors=args.fleet_processors,
        failure_rate_scale=args.fleet_scale,
        seed=args.fleet_seed,
    )
    fleet = generate_fleet(spec)
    if args.faulty > len(fleet.faulty):
        raise SystemExit(
            f"fleet only has {len(fleet.faulty)} faulty processors, "
            f"--faulty {args.faulty} requested"
        )
    faulty = fleet.faulty[: args.faulty]
    healthy_count = args.processors - len(faulty)
    if healthy_count < 0:
        raise SystemExit("--faulty must not exceed --processors")
    healthy = [
        dataclasses.replace(
            faulty[0], processor_id=f"H-{index:04d}", defects=()
        )
        for index in range(healthy_count)
    ]
    return spec, faulty + healthy


def run(args: argparse.Namespace) -> dict:
    spec, processors = _population(args)
    library = build_library()
    plan = TestPlan(
        entries=[
            PlanEntry(tc.testcase_id, args.duration) for tc in library
        ]
    )

    scalar_s = float("inf")
    scalar_reports = None
    scalar_states = None
    for _ in range(args.repeats):
        frameworks = [
            TestFramework(library, seed=args.seed) for _ in processors
        ]
        runners = [
            framework.runner_for(processor)
            for framework, processor in zip(frameworks, processors)
        ]
        start = time.perf_counter()
        scalar_reports = [
            framework.execute(plan, processor, runner=runner)
            for framework, processor, runner in zip(
                frameworks, processors, runners
            )
        ]
        scalar_s = min(scalar_s, time.perf_counter() - start)
        scalar_states = [
            runner._rng.bit_generator.state for runner in runners
        ]

    batch_s = float("inf")
    batch_reports = None
    batch_states = None
    for _ in range(args.repeats):
        engine = BatchScreeningEngine(
            processors, plan, library, seed=args.seed
        )
        start = time.perf_counter()
        batch_reports = engine.run()
        batch_s = min(batch_s, time.perf_counter() - start)
        batch_states = [
            runner._rng.bit_generator.state for runner in engine.runners
        ]

    scalar_keys = [_report_key(r) for r in scalar_reports]
    assert scalar_keys == [_report_key(r) for r in batch_reports], (
        "batch screening diverged from the scalar runner"
    )
    assert scalar_states == batch_states, (
        "batch screening left a lane's RNG at a different position"
    )

    # Telemetry: instrumented batch run, parity asserted again, plus
    # the disabled-path guard cost (bench_perf_obs convention).
    enabled_s = float("inf")
    trace_records = 0
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(args.repeats):
            metrics_path = Path(tmp) / f"metrics-{index}.prom"
            trace_path = Path(tmp) / f"trace-{index}.jsonl"
            obs = Observability.create(metrics_path, trace_path)
            engine = BatchScreeningEngine(
                processors, plan, library, seed=args.seed, obs=obs
            )
            start = time.perf_counter()
            enabled_reports = engine.run()
            enabled_s = min(enabled_s, time.perf_counter() - start)
            lanes_counted = obs.metrics.total(
                "repro_toolchain_screen_lanes_total"
            )
            obs.close()
            trace_records = (
                len(read_trace(trace_path, strict=True))
                if trace_path.exists()
                else 0
            )
            enabled_states = [
                runner._rng.bit_generator.state
                for runner in engine.runners
            ]
    assert scalar_keys == [_report_key(r) for r in enabled_reports], (
        "telemetry changed the screening results"
    )
    assert scalar_states == enabled_states, (
        "telemetry moved a lane's RNG position"
    )
    assert lanes_counted == len(processors), "metrics lost screening lanes"

    probe_ns = _null_probe_ns()
    # Disabled-path guards per run: one shared null context per span
    # recorded when enabled, plus the single `if obs is not None` gate
    # in front of the post-run counters.
    guard_sites = trace_records + 1
    null_overhead = (guard_sites * probe_ns * 1e-9) / batch_s
    enabled_overhead = enabled_s / batch_s - 1.0

    errors = sum(report.error_count for report in scalar_reports)
    return {
        "benchmark": "bench_perf_toolchain",
        "population": {
            "processors": len(processors),
            "faulty": args.faulty,
            "fleet_processors": spec.total_processors,
            "fleet_scale": spec.failure_rate_scale,
            "fleet_seed": spec.seed,
        },
        "plan": {
            "testcases": len(plan.entries),
            "per_testcase_s": args.duration,
        },
        "seed": args.seed,
        "repeats": args.repeats,
        "scalar_s": round(scalar_s, 4),
        "batch_s": round(batch_s, 4),
        "speedup": round(scalar_s / batch_s, 2),
        "errors": errors,
        "parity": "exact",
        "obs": {
            "enabled_s": round(enabled_s, 4),
            "enabled_overhead": round(enabled_overhead, 4),
            "trace_records": trace_records,
            "guard_sites": guard_sites,
            "null_probe_ns": round(probe_ns, 2),
            "null_overhead": float(f"{null_overhead:.3g}"),
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "effective_cores": effective_cores(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--processors", type=int, default=200,
        help="screening batch size (faulty + healthy)",
    )
    parser.add_argument(
        "--faulty", type=int, default=40,
        help="faulty contingent drawn from the generated fleet",
    )
    parser.add_argument("--fleet-processors", type=int, default=60_000)
    parser.add_argument(
        "--fleet-scale", type=float, default=40.0,
        help="failure_rate_scale densifying the fleet's faulty population",
    )
    parser.add_argument("--fleet-seed", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0, help="runner seed")
    parser.add_argument(
        "--duration", type=float, default=60.0,
        help="seconds per testcase (60 is the baseline's allocation)",
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="fail unless batch/scalar speedup reaches this (only "
             "enforced on machines with >= 4 effective cores; parity "
             "is always enforced)",
    )
    parser.add_argument(
        "--max-null-overhead", type=float, default=0.03,
        help="fail if the disabled telemetry path could cost more than "
             "this fraction of the silent run",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_toolchain.json",
    )
    args = parser.parse_args(argv)
    logging_setup(verbose=1)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    report = run(args)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"scalar {report['scalar_s']:.3f}s  "
        f"batch {report['batch_s']:.3f}s  "
        f"speedup {report['speedup']:.1f}x  "
        f"({report['population']['processors']} lanes x "
        f"{report['plan']['testcases']} testcases, "
        f"{report['errors']} errors, parity exact)"
    )
    print(
        f"obs: enabled {report['obs']['enabled_s']:.3f}s "
        f"(+{report['obs']['enabled_overhead'] * 100:.1f}%), "
        f"null overhead {report['obs']['null_overhead']:.2e}"
    )
    logger.info("wrote %s", args.out)
    cores = report["environment"]["effective_cores"]
    if args.min_speedup > 0.0 and cores >= 4:
        if report["speedup"] < args.min_speedup:
            logger.error(
                "FAIL: batch speedup %.2fx below gate %.2fx on %d cores",
                report["speedup"], args.min_speedup, cores,
            )
            return 1
    if report["obs"]["null_overhead"] > args.max_null_overhead:
        logger.error(
            "FAIL: disabled-telemetry overhead %.4f above gate %.4f",
            report["obs"]["null_overhead"], args.max_null_overhead,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
