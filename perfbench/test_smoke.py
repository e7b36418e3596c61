"""Tiny-size smoke of the benchmark: every workload, untraced and traced,
output checks included.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = ("fleet-study", "screen-protect", "serve-steady")


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_passes_checks_both_ways(workload):
    base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--size", "tiny"]
    plain = _result(_bench(*base, "--trace", "0"))
    traced = _result(_bench(*base, "--trace", "1"))
    for result, names in ((plain, run.END_TO_END), (traced, run.PER_LAYER)):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(names)
        for name, unit in names.items():
            assert result["metrics"][name]["unit"] == unit
    for name in run.END_TO_END:
        assert plain["metrics"][name]["value"] > 0
    if workload != "serve-steady":
        assert traced["metrics"]["layer_coverage"]["value"] >= 0.95


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(
        "--workload", "fleet-study", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
