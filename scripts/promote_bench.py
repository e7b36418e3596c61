#!/usr/bin/env python
"""Promote a benchmark report measured by CI into its committed artifact.

A report measured on a small runner cannot speak to multi-core
behavior, so CI writes a fresh candidate report and this script
replaces the committed artifact with it **only** when:

* the candidate runner reports ``>= --min-cores`` effective cores
  (smaller runners skip cleanly with exit 0 — the gate, not a failure);
* the candidate's parity field is ``exact`` (a report whose results
  diverged must never be promoted);
* the candidate's ``benchmark`` field is ``--benchmark-name``;
* the candidate beats the committed artifact when that one already
  came from a capable runner (never replace a good measurement with a
  worse one).

Reports with a ``scaling_curve`` compare by their 4-worker efficiency;
flat reports compare by their ``speedup`` field.  The toolchain CI job
runs::

    python scripts/promote_bench.py --benchmark-name bench_perf_toolchain \
        --candidate /tmp/BENCH_toolchain_candidate.json \
        --committed BENCH_toolchain.json

Exit codes: 0 promoted or cleanly skipped, 1 candidate rejected.
"""

import argparse
import json
import sys
from pathlib import Path
from typing import Tuple


def log(message: str) -> None:
    print(f"[promote-bench] {message}", flush=True)


def _multi_core_efficiency(report: dict, workers: int = 4) -> float:
    """The committed gate point: efficiency of the ``workers``-wide run."""
    for point in report.get("scaling_curve", []):
        if point.get("workers") == workers:
            return float(point.get("efficiency", 0.0))
    return 0.0


def _merit(report: dict) -> Tuple[float, str]:
    """The promotion figure of merit for a report.

    Scaling reports compare by their 4-worker efficiency; flat reports
    (no ``scaling_curve``, e.g. the batch-screening bench) compare by
    their plain ``speedup`` field.
    """
    if "scaling_curve" in report:
        return _multi_core_efficiency(report), "4-worker efficiency"
    return float(report.get("speedup", 0.0)), "speedup"


def promote(
    candidate_path: Path,
    committed_path: Path,
    min_cores: int,
    dry_run: bool = False,
    benchmark_name: str = "bench_parallel_fleet",
) -> int:
    try:
        candidate = json.loads(candidate_path.read_text())
    except (OSError, ValueError) as error:
        log(f"skip: no usable candidate report ({error})")
        return 0
    cores = int(candidate.get("environment", {}).get("effective_cores", 0))
    if cores < min_cores:
        log(
            f"skip: candidate measured on {cores} effective core(s); "
            f"promotion needs >= {min_cores}"
        )
        return 0
    if candidate.get("parity") != "exact":
        log(f"reject: candidate parity is {candidate.get('parity')!r}")
        return 1
    if candidate.get("benchmark") != benchmark_name:
        log(
            f"reject: not a {benchmark_name} report: "
            f"{candidate.get('benchmark')!r}"
        )
        return 1
    candidate_eff, merit_name = _merit(candidate)
    if candidate_eff <= 0.0:
        log(f"reject: candidate has no usable {merit_name}")
        return 1
    try:
        committed = json.loads(committed_path.read_text())
    except (OSError, ValueError):
        committed = {}
    committed_cores = int(
        committed.get("environment", {}).get("effective_cores", 0)
    )
    committed_eff, _ = _merit(committed)
    if committed_cores >= min_cores and committed_eff >= candidate_eff:
        log(
            f"skip: committed artifact already holds a >= {min_cores}-core "
            f"measurement at {merit_name} {committed_eff:.2f} "
            f"(candidate {candidate_eff:.2f})"
        )
        return 0
    log(
        f"promoting: {cores}-core measurement, {merit_name} "
        f"{candidate_eff:.2f} (was {committed_cores}-core, "
        f"{committed_eff:.2f})"
    )
    if dry_run:
        log("dry run: committed artifact left untouched")
        return 0
    committed_path.write_text(
        json.dumps(candidate, indent=1, sort_keys=False) + "\n"
    )
    log(f"wrote {committed_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--candidate", required=True,
        help="fresh report written by the benchmark",
    )
    parser.add_argument(
        "--committed", required=True,
        help="committed artifact to promote into",
    )
    parser.add_argument(
        "--min-cores", type=int, default=4,
        help="effective cores required before a promotion (default 4)",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="report the decision without writing the committed file",
    )
    parser.add_argument(
        "--benchmark-name", default="bench_parallel_fleet",
        help="required 'benchmark' field of the candidate report",
    )
    args = parser.parse_args(argv)
    return promote(
        Path(args.candidate),
        Path(args.committed),
        args.min_cores,
        dry_run=args.dry_run,
        benchmark_name=args.benchmark_name,
    )


if __name__ == "__main__":
    sys.exit(main())
