"""``serve-steady``: a ``repro serve`` daemon under steady open-loop load.

The daemon runs as its own process (``repro serve --state-dir <tmp>
--core-budget 2``, every other flag at its default).  One client
process submits jobs on a seeded Poisson schedule at 4 jobs/s, one
connection at a time, whether or not earlier jobs have finished, and
polls ``/jobs`` every 0.1 s.  Nine jobs in ten are small (20k CPUs),
one in ten is large (200k CPUs); every job draws its fleet from four
shared fleet seeds and has its own pipeline seed, so jobs share fleets
but never whole campaigns.  A job's latency runs from its *scheduled*
send time to the poll that first sees it done, so a stalled generator
or daemon counts against every job queued behind it.

The end-to-end ``unit_latency_s`` is the median latency of the jobs
sent while the client knew of no unfinished job: one unit of work that
waited behind no other, as an in-process round does.  The latency of
all jobs sits in two modes (queued behind a large job or not), and at
this load its median falls between them, so it is reported with the
p90 among the per-layer metrics instead.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from harness import OUT, SRC, Probe, derive_seed, digest, layer_metrics, median, percentile

RATE_PER_S = 4.0
POLL_S = 0.1
FLEETS = 4
FAILURE_RATE_SCALE = 20
DAEMON_FLAGS = ("--core-budget", "2")
SIZES = {
    "full": {"small": 20_000, "large": 200_000, "min_jobs": 100},
    "tiny": {"small": 2_000, "large": 20_000, "min_jobs": 10},
}
#: How long after the last scheduled send an unfinished job counts as
#: timed out.
DRAIN_TIMEOUT_S = 90.0
TOP = "bench.session"


@dataclass
class State:
    seed: int
    size_name: str
    size: dict
    library: object
    library_build_s: float
    state_dir: Path
    log_path: Path
    process: subprocess.Popen
    client: object


def setup(seed: int, size: str) -> State:
    from repro.service import ServiceClient
    from repro.testing import build_library

    start = time.perf_counter()
    library = build_library()
    build_s = time.perf_counter() - start
    state_dir = OUT / "tmp" / f"serve-steady-{seed}-{time.time_ns()}"
    state_dir.mkdir(parents=True)
    log_path = state_dir.with_suffix(".log")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    with open(log_path, "wb") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--state-dir", str(state_dir), *DAEMON_FLAGS],
            cwd=SRC.parent, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
    state = State(seed, size, SIZES[size], library, build_s, state_dir, log_path, process, None)
    try:
        deadline = time.monotonic() + 60.0
        while not (state_dir / "endpoint.json").exists():
            if process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"daemon did not start; see {log_path}")
            time.sleep(0.01)
        state.client = ServiceClient.from_state_dir(state_dir)
        state.client.wait_ready(timeout_s=60.0)
    except BaseException:
        teardown(state)
        raise
    return state


def _group_alive(pgid: int) -> bool:
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def teardown(state: State) -> None:
    """SIGTERM the daemon (graceful drain), then make sure nothing of its
    process group — pool workers included — outlives the run."""
    process = state.process
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 10.0
    while _group_alive(process.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    shutil.rmtree(state.state_dir, ignore_errors=True)
    state.log_path.unlink(missing_ok=True)


def _schedule(state: State, seconds: float) -> list:
    """``(offset_s, submission)`` per job, from the workload seed."""
    rng = random.Random(derive_seed(state.seed, "arrivals"))
    count = max(state.size["min_jobs"], round(RATE_PER_S * seconds))
    fleets = [derive_seed(state.seed, "fleet", k) for k in range(FLEETS)]
    large = set()
    for block in range(0, count, 10):
        large.add(block + rng.randrange(min(10, count - block)))
    jobs, offset = [], 0.0
    for index in range(count):
        offset += rng.expovariate(RATE_PER_S)
        jobs.append((offset, {
            "job_id": f"job-{index:04d}",
            "total_processors": state.size["large" if index in large else "small"],
            "fleet_seed": rng.choice(fleets),
            "pipeline_seed": derive_seed(state.seed, "pipeline", index),
            "failure_rate_scale": FAILURE_RATE_SCALE,
        }))
    return jobs


def _drive(state: State, jobs: list, probe: Probe) -> dict:
    """The open-loop client.  The second half of the jobs runs traced
    when the probe is enabled; the first half is its untraced twin."""
    from repro.service import Rejected
    from repro.errors import ServiceError

    client = state.client
    clock = time.perf_counter
    half = len(jobs) // 2
    session = None
    scheduled, latency, lag, ack_s = {}, {}, [], []
    unqueued = []
    failed = 0
    pending = set()
    start = clock() + 0.2
    next_poll = start
    sent = 0
    while sent < len(jobs) or pending:
        now = clock()
        if sent < len(jobs) and now >= start + jobs[sent][0]:
            if probe.enabled and sent == half:
                probe.active = True
                session = probe.span(TOP)
                session.__enter__()
            offset, submission = jobs[sent]
            due = start + offset
            lag.append(now - due)
            try:
                with probe.span("service.client.submit"):
                    client.submit(submission)
                ack_s.append(clock() - now)
                if not pending:
                    unqueued.append(submission["job_id"])
                scheduled[submission["job_id"]] = due
                pending.add(submission["job_id"])
            except (Rejected, ServiceError, OSError):
                failed += 1
            sent += 1
            continue
        if now >= next_poll:
            with probe.span("service.client.poll"):
                overview = client.jobs()
            seen = clock()
            for job in overview["jobs"]:
                job_id = job["job_id"]
                if job_id not in pending:
                    continue
                if job["state"] == "done":
                    latency[job_id] = seen - scheduled[job_id]
                    pending.discard(job_id)
                elif job["state"] in ("failed", "expired"):
                    failed += 1
                    pending.discard(job_id)
            next_poll = max(next_poll + POLL_S, seen)
            if sent == len(jobs) and seen > start + jobs[-1][0] + DRAIN_TIMEOUT_S:
                failed += len(pending)
                pending.clear()
            continue
        wake = next_poll if sent == len(jobs) else min(next_poll, start + jobs[sent][0])
        with probe.span("bench.wait"):
            time.sleep(max(0.0, wake - clock()))
    end = clock()
    if session is not None:
        session.__exit__(None, None, None)
    probe.active = False
    return {
        "start": start,
        "end": end,
        "half_start": start + jobs[half][0] if jobs else start,
        "latency": latency,
        "unqueued": [job_id for job_id in unqueued if job_id in latency],
        "lag": lag,
        "ack_s": ack_s,
        "failed": failed,
    }


def _daemon_figures(state: State, unix_window: tuple, wall: float) -> dict:
    from repro.obs.metrics import parse_prometheus_text

    parsed = parse_prometheus_text(state.client.metrics_text())

    def total(sample: str) -> float:
        return sum(
            value
            for family in parsed.values()
            for key, value in family["samples"].items()
            if key == sample or key.startswith(sample + "{")
        )

    def window(name: str, column: int) -> list:
        doc = state.client.timeseries(name=name, tier="raw")
        return [
            point[column]
            for points in doc["series"].values()
            for point in points
            if unix_window[0] <= point[0] <= unix_window[1]
        ]

    leased = window("repro_service_cores_leased", 1)
    depth = window("repro_service_queue_depth", 3)
    shard_s = total("repro_service_shard_seconds_sum")
    return {
        "peak_rss_mb": total("repro_peak_rss_bytes") / 2**20,
        "service.journal.append_s": total("repro_service_journal_append_seconds_sum"),
        "service.journal.appends": total("repro_service_journal_appends_total"),
        "service.scheduler.shard_s": shard_s,
        "service.scheduler.shards": total("repro_service_shard_seconds_count"),
        "service.scheduler.busy_ratio": shard_s / wall,
        "service.governor.cores_leased_mean": sum(leased) / len(leased) if leased else 0.0,
        "perf.parallel.tasks": total("repro_parallel_tasks_total"),
        "perf.parallel.lower_s": total("repro_parallel_lower_seconds_sum"),
        "fleet.shm.bytes": total("repro_shm_bytes"),
        "service.queue_depth_max": max(depth) if depth else 0.0,
    }


def _verdicts(state: State, jobs: list, done: dict) -> tuple:
    """Every finished job's verdict, plus oracle parity on a sample:
    the first small job, the first large job and one seeded pick must
    equal a direct ``ResilientCampaign`` run of the same spec."""
    from repro.resilience import CampaignSpec, ResilientCampaign

    results = {
        job_id: state.client.verdict(job_id)["result"] for job_id in sorted(done)
    }
    problems = []
    by_id = {submission["job_id"]: submission for _, submission in jobs}
    sample = set()
    for size in ("small", "large"):
        for job_id in sorted(results):
            if by_id[job_id]["total_processors"] == state.size[size]:
                sample.add(job_id)
                break
    if results:
        sample.add(random.Random(derive_seed(state.seed, "parity")).choice(sorted(results)))
    for job_id in sorted(sample):
        spec = {k: v for k, v in by_id[job_id].items() if k != "job_id"}
        campaign = ResilientCampaign.from_spec(CampaignSpec(**spec), state.library)
        with campaign:
            campaign.run()
        if campaign.result.to_dict() != results[job_id]:
            problems.append(f"serve-steady: verdict of {job_id} differs from a direct campaign run")
    return results, problems


def measure(state: State, seconds: float, traced: bool, run_id: str) -> dict:
    probe = Probe(run_id, enabled=traced)
    probe.active = False
    jobs = _schedule(state, seconds)
    unix_start = time.time()
    drive = _drive(state, jobs, probe)
    unix_end = time.time()
    wall = drive["end"] - drive["start"]
    daemon = _daemon_figures(state, (unix_start, unix_end), wall)
    latency = drive["latency"]
    results, problems = _verdicts(state, jobs, latency)
    failed = drive["failed"]
    if failed:
        problems.append(f"serve-steady: {failed} of {len(jobs)} jobs failed, were refused or timed out")
    counts = {
        "service.jobs": len(jobs),
        "service.verdict_digest": digest([results[job_id] for job_id in sorted(results)]),
        "fleet.pipeline.detections": sum(len(r["detections"]) for r in results.values()),
    }
    values = list(latency.values())
    unqueued = [latency[job_id] for job_id in drive["unqueued"]]
    outcome = {
        "problems": problems,
        "counts": counts,
        "scope": f"{state.size_name}-{len(jobs)}jobs",
        "attempted": len(jobs),
        "failed": failed,
        "unit_latency_s": median(unqueued),
        "peak_rss_mb": daemon["peak_rss_mb"],
        "environment": {"daemon_flags": list(DAEMON_FLAGS), "rate_per_s": RATE_PER_S, "poll_s": POLL_S},
        "details": {
            "jobs": len(jobs),
            "latency_s": {job_id: latency[job_id] for job_id in sorted(latency)},
            "unqueued_jobs": drive["unqueued"],
            "generator_lag_p90_s": percentile(drive["lag"], 90),
            "session_wall_s": wall,
            "daemon": daemon,
        },
    }
    if traced:
        half = {submission["job_id"] for _, submission in jobs[len(jobs) // 2:]}
        traced_half = [latency[job_id] for job_id in drive["unqueued"] if job_id in half]
        plain_half = [latency[job_id] for job_id in drive["unqueued"] if job_id not in half]
        per_layer = layer_metrics(probe, TOP, [drive["end"] - drive["half_start"]], [])
        per_layer.update({key: value for key, value in daemon.items() if key != "peak_rss_mb"})
        per_layer.update({
            "testing.library.build_s": state.library_build_s,
            "service.client.submit_ack_s": median(drive["ack_s"]),
            "job_latency_p50_s": median(values),
            "job_latency_p90_s": percentile(values, 90),
            "job_latency_samples": len(values),
            "job_unqueued_samples": len(unqueued),
            "jobs_per_s": len(values) / wall,
            "error_rate": failed / len(jobs),
            "bench.generator_lag_p90_s": percentile(drive["lag"], 90),
            # The open loop fixes the wall, so the tracing cost shows in
            # latency: unqueued jobs of the traced half against those of
            # the untraced half.
            "trace_overhead_ratio": (
                median(traced_half) / median(plain_half) - 1.0 if plain_half and traced_half else 0.0
            ),
        })
        outcome["per_layer"] = per_layer
        outcome["probe"] = probe
    return outcome
