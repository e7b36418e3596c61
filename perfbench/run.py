#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-study --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with layer spans and prints the per-layer rollup.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; details, the environment and the trace land under
``.perfbench/runs/``.  See ``perfbench/README.md`` for the workloads and
the layer -> metric -> workload map.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from harness import OUT, ROOT, SRC, Ledger, environment, median  # noqa: E402

WORKLOADS = {
    "fleet-study": "fleet_study",
    "screen-protect": "screen_protect",
    "serve-steady": "serve_steady",
}

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Every end-to-end metric, in BENCHMARK.json order, with its unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "unit_latency_s": "s",
}

#: Every per-layer metric, in BENCHMARK.json order, with its unit.  A
#: layer a workload does not exercise reads 0 there.
PER_LAYER = {
    # set-up
    "repro.import_s": "s",
    "testing.library.build_s": "s",
    # workload-level figures behind unit_latency_s
    "cpus_per_s": "1/s",
    "screened_cpus_per_s": "1/s",
    "farron_eval_s": "s",
    "protect_sim_h_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "job_latency_samples": "count",
    "job_unqueued_samples": "count",
    "jobs_per_s": "1/s",
    "error_rate": "ratio",
    # fleet-study layers
    "fleet.population.generate_s": "s",
    "fleet.population.faulty": "count",
    "resilience.campaign.build_s": "s",
    "resilience.campaign.run_s": "s",
    "fleet.vectorized.run_range_s": "s",
    "fleet.vectorized.run_range_calls": "count",
    "perf.exact_rng.derive_s": "s",
    "perf.exact_rng.derive_calls": "count",
    "resilience.checkpoint.save_s": "s",
    "resilience.checkpoint.saves": "count",
    "resilience.checkpoint.bytes_written": "bytes",
    "analysis.columnar.frame_s": "s",
    "colstore.save_s": "s",
    "colstore.bytes": "bytes",
    "fleet.stats.report_s": "s",
    # screen-protect layers
    "testing.framework.execute_batch_s": "s",
    "testing.batch.lanes": "count",
    "thermal.batch.step_lanewise_s": "s",
    "thermal.batch.step_lanewise_calls": "count",
    "testing.framework.known_failing_s": "s",
    "core.evaluation.coverage_farron_s": "s",
    "core.evaluation.coverage_baseline_s": "s",
    "testing.runner.run_testcase_s": "s",
    "testing.runner.run_testcase_calls": "count",
    "thermal.model.step_s": "s",
    "thermal.model.step_calls": "count",
    "faults.trigger.sample_errors_calls": "count",
    "core.batch_online.simulate_s": "s",
    "thermal.batch.step_s": "s",
    "thermal.batch.step_calls": "count",
    # serve-steady layers (client spans, daemon /metrics and /timeseries)
    "service.client.submit_ack_s": "s",
    "service.client.poll_s": "s",
    "service.journal.append_s": "s",
    "service.journal.appends": "count",
    "service.scheduler.shard_s": "s",
    "service.scheduler.shards": "count",
    "service.scheduler.busy_ratio": "ratio",
    "service.governor.cores_leased_mean": "cores",
    "perf.parallel.tasks": "count",
    "perf.parallel.lower_s": "s",
    "fleet.shm.bytes": "bytes",
    "service.queue_depth_max": "count",
    "bench.generator_lag_p90_s": "s",
    # exact simulated counts: a speed-only change must not move these
    "fleet.pipeline.detections": "count",
    "testing.records.sdc_records": "count",
    "core.evaluation.coverage": "ratio",
    "core.batch_online.control_overhead": "ratio",
    "service.verdict_digest": "count",
    # trace accounting
    "untraced_s": "s",
    "layer_coverage": "ratio",
    "trace_overhead_ratio": "ratio",
}


def _time_setups(args) -> list:
    """Wall seconds from spawning a fresh process to its inputs being
    ready, ``SETUP_SAMPLES`` times, one process at a time."""
    samples = []
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--setup-probe",
    ]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
        samples.append(ready)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="'tiny' shrinks every input for the smoke test",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # The set-up probe never measures; every other run must say how.
    if not args.setup_probe and (args.seconds is None or args.trace is None):
        parser.error("--seconds and --trace are required")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import repro  # noqa: F401  (timed: the import is a layer)

    import_s = time.perf_counter() - start
    workload = importlib.import_module(WORKLOADS[args.workload])

    if args.setup_probe:
        state = workload.setup(args.seed, args.size)
        print("ready", flush=True)
        workload.teardown(state)
        return 0

    traced = bool(args.trace)
    setups = [] if traced else _time_setups(args)
    run_id = f"{args.workload}-{args.seed}-{'traced' if traced else 'untraced'}"
    state = workload.setup(args.seed, args.size)
    try:
        outcome = workload.measure(state, args.seconds, traced, run_id)
    finally:
        workload.teardown(state)

    problems = list(outcome["problems"])
    problems += Ledger(args.workload, args.seed, outcome.get("scope", args.size)).check(
        outcome["counts"]
    )
    if traced:
        values = dict(outcome["per_layer"])
        values["repro.import_s"] = import_s
        values.update(outcome["counts"])
        metrics = {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        values = {
            "setup_s": median(setups),
            "peak_rss_mb": outcome["peak_rss_mb"],
            "unit_latency_s": outcome["unit_latency_s"],
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "run_id": run_id,
        "environment": environment(outcome.get("environment")),
        "setup_samples_s": setups,
        "import_s": import_s,
        "process_wall_s": time.perf_counter() - PROCESS_START,
        "problems": problems,
        "counts": outcome["counts"],
        "details": outcome.get("details", {}),
        "metrics": metrics,
    }
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{run_id}.json").write_text(json.dumps(detail, indent=2, sort_keys=True))
    if outcome.get("probe") is not None:
        outcome["probe"].write(runs / f"{run_id}.trace.jsonl")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
