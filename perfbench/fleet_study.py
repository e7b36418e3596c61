"""``fleet-study``: the ``repro fleet-study`` path, in-process.

One round is one whole study of a fresh 2M-CPU fleet (failure-rate
scale 20, about 13.9k faulty CPUs): population generation, the
vectorized campaign in 256-CPU shards with a checkpoint every 4
shards, the detection frame spilled to a column store, and the
Table 1/2 and Figure 2/3 statistics.  Every round draws its own fleet
and pipeline seeds from the workload seed, so no round can reuse
another's work.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from harness import OUT, Probe, derive_seed, digest, layer_metrics, median, peak_rss_mb, run_rounds

SIZES = {
    "full": {"processors": 2_000_000, "prefix": 64},
    "tiny": {"processors": 40_000, "prefix": 16},
}
FAILURE_RATE_SCALE = 20
SHARD_SIZE = 256
CHECKPOINT_EVERY = 4
TOP = "bench.round"


@dataclass
class State:
    seed: int
    processors: int
    prefix: int
    library: object
    library_build_s: float
    workdir: Path


def setup(seed: int, size: str) -> State:
    from repro.testing import build_library

    start = time.perf_counter()
    library = build_library()
    build_s = time.perf_counter() - start
    workdir = OUT / "tmp" / f"fleet-study-{seed}-{time.time_ns()}"
    return State(seed, SIZES[size]["processors"], SIZES[size]["prefix"], library, build_s, workdir)


def teardown(state: State) -> None:
    shutil.rmtree(state.workdir, ignore_errors=True)


def _spec(state: State, index: int):
    from repro.resilience import CampaignSpec

    return CampaignSpec(
        total_processors=state.processors,
        fleet_seed=derive_seed(state.seed, "fleet", index),
        pipeline_seed=derive_seed(state.seed, "pipeline", index),
        failure_rate_scale=FAILURE_RATE_SCALE,
        engine="vectorized",
        shard_size=SHARD_SIZE,
    )


def _report(result, population):
    """The tables ``repro fleet-study`` prints."""
    from repro.fleet import stats

    return {
        "table1": stats.timing_failure_rates_permyriad(result),
        "table2": stats.arch_failure_rates_permyriad(result),
        "fig2": {str(k): v for k, v in stats.feature_proportions(result, population).items()},
        "fig3": {str(k): v for k, v in stats.datatype_proportions(result, population).items()},
        "obs4": stats.single_core_fraction(result, population),
    }


def _round(state: State, index: int, probe: Probe) -> dict:
    from repro.analysis import DetectionFrame
    from repro.resilience import CheckpointStore, ResilientCampaign

    spec = _spec(state, index)
    workdir = state.workdir / f"round-{index}-{'t' if probe.active else 'u'}"
    with probe.span(TOP):
        with probe.span("resilience.campaign.build"):
            campaign = ResilientCampaign.from_spec(
                spec, state.library,
                checkpoint_store=CheckpointStore(workdir / "ckpt"),
                checkpoint_every=CHECKPOINT_EVERY,
            )
        with campaign:
            with probe.span("resilience.campaign.run"):
                result = campaign.run()
        with probe.span("analysis.columnar.frame"):
            frame = DetectionFrame.from_result(result)
        with probe.span("colstore.save"):
            written = frame.save(workdir / "detections")
        with probe.span("fleet.stats.report"):
            tables = _report(result, campaign.population)
    if probe.active:
        probe.counts["colstore.bytes"] += written
    return {
        "spec": spec,
        "campaign": campaign,
        "result": result,
        "tables": tables,
        "workdir": workdir,
    }


def _counts(out: dict) -> dict:
    result = out["result"]
    return {
        "fleet.population.faulty": len(out["campaign"].population.faulty),
        "fleet.pipeline.detections": len(result.detections),
        "fleet.pipeline.undetected": len(result.undetected_ids),
        "fleet.pipeline.result_digest": digest(result.to_dict()),
        "fleet.stats.tables_digest": digest(out["tables"]),
    }


def _check(state: State, out: dict) -> list:
    """Output checks on one finished round (outside the timed region)."""
    from repro.analysis import DetectionFrame
    from repro.resilience import CheckpointStore, ResilientCampaign

    problems = []
    campaign, result = out["campaign"], out["result"]
    faulty = campaign.population.faulty
    if len(result.detections) + len(result.undetected_ids) != len(faulty):
        problems.append("fleet-study: detections + undetected != faulty CPUs")
    if campaign.health.retries or campaign.health.degradations:
        problems.append(f"fleet-study: campaign health {campaign.health.summary()}")
    # Oracle parity: the scalar pipeline on a prefix of the faulty CPUs
    # must reproduce the vectorized verdicts for those CPUs exactly.
    oracle = ResilientCampaign(
        campaign.population, state.library,
        seed=out["spec"].pipeline_seed, engine="scalar", shard_size=state.prefix,
    )
    oracle.step()
    prefix_ids = {p.processor_id for p in faulty[: state.prefix]}
    fast = [d for d in result.detections if d.processor_id in prefix_ids]
    fast_undetected = [i for i in result.undetected_ids if i in prefix_ids]
    if fast != oracle.result.detections or fast_undetected != oracle.result.undetected_ids:
        problems.append(
            f"fleet-study: vectorized verdicts for the first {state.prefix} "
            f"faulty CPUs differ from the scalar oracle"
        )
    spilled = DetectionFrame.load(out["workdir"] / "detections", verify=True)
    if len(spilled) != len(result.detections) or spilled.undetected_ids != tuple(result.undetected_ids):
        problems.append("fleet-study: spilled detection frame does not round-trip")
    latest = CheckpointStore(out["workdir"] / "ckpt").load_latest()
    if latest is None or latest["cursor"] != len(faulty):
        problems.append("fleet-study: newest checkpoint is not at the end cursor")
    return problems


def _instrument(probe: Probe) -> None:
    import repro.fleet.vectorized as vectorized
    import repro.resilience.campaign as campaign_module
    from repro.resilience import CheckpointStore

    def generated(probe, population):
        probe.counts["fleet.population.faulty"] += len(population.faulty)

    def ran_range(probe, _result):
        probe.counts["fleet.vectorized.run_range_calls"] += 1

    def saved(probe, path):
        probe.counts["resilience.checkpoint.saves"] += 1
        probe.counts["resilience.checkpoint.bytes_written"] += path.stat().st_size

    probe.wrap(campaign_module, "generate_fleet", "fleet.population.generate", after=generated)
    probe.wrap(vectorized.VectorizedTestPipeline, "run_range", "fleet.vectorized.run_range", after=ran_range)
    probe.wrap_hot(vectorized, "derive_from_hasher", "perf.exact_rng.derive")
    probe.wrap(CheckpointStore, "save", "resilience.checkpoint.save", after=saved)


def measure(state: State, seconds: float, traced: bool, run_id: str) -> dict:
    probe = Probe(run_id, enabled=traced)
    _instrument(probe)
    checks: list = []

    def summarize(index: int, traced_round: bool, wall: float, out: dict) -> dict:
        health = out["campaign"].health
        faulty = len(out["campaign"].population.faulty)
        if index == 0 and not traced_round:
            checks.extend(_check(state, out))
        shutil.rmtree(out["workdir"], ignore_errors=True)
        return {
            "wall": wall,
            "counts": _counts(out),
            "shards": -(-faulty // SHARD_SIZE),
            "failed": health.retries + health.degradations,
            "cpus_per_s": state.processors / wall,
        }

    untraced, traced_rounds, problems = run_rounds(
        seconds, probe, lambda index: _round(state, index, probe), summarize,
    )
    problems = checks + problems
    summaries = untraced + traced_rounds
    attempted = sum(s["shards"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    outcome = {
        "problems": problems,
        "counts": untraced[0]["counts"],
        "attempted": attempted,
        "failed": failed,
        "unit_latency_s": median([s["wall"] for s in untraced]),
        "peak_rss_mb": peak_rss_mb(),
        "details": {
            "round_walls_s": [s["wall"] for s in untraced],
            "traced_round_walls_s": [s["wall"] for s in traced_rounds],
            "cpus_per_s": [s["cpus_per_s"] for s in untraced],
            "processors_per_round": state.processors,
        },
    }
    if traced:
        values = layer_metrics(
            probe, TOP,
            [s["wall"] for s in traced_rounds], [s["wall"] for s in untraced],
        )
        values["testing.library.build_s"] = state.library_build_s
        values["cpus_per_s"] = median([s["cpus_per_s"] for s in untraced])
        values["error_rate"] = failed / attempted
        outcome["per_layer"] = values
        outcome["probe"] = probe
    return outcome
