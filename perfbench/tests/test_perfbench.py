"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They start real server processes, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from repro.core.verify import fingerprint  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
KEPT = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", KEPT)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_mode_emits_every_named_metric_with_its_unit(workload, trace, section):
    result = result_of(
        run_bench("--workload", workload, "--seed", "3", "--quick", "--trace", str(trace))
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == expected


@pytest.mark.parametrize("workload", KEPT)
def test_corrupt_replies_count_as_failed(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--quick", "--services", "corrupt")
    result = result_of(proc)
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert "oracle mismatch" in proc.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    spec = WORKLOADS[workload]

    def inputs(seed):
        calls = [spec.make_input(seed, caller, index)
                 for caller in range(spec.callers) for index in range(12)]
        return [fingerprint(list(call.args)) for call in calls]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


@pytest.mark.parametrize("workload", KEPT)
def test_same_seed_gives_identical_wire_bytes(workload):
    def wire_bytes():
        result = result_of(
            run_bench("--workload", workload, "--seed", "4", "--quick")
        )
        return result["metrics"]["wire_bytes_per_call"]["value"]

    first, second = wire_bytes(), wire_bytes()
    # Each client endpoint draws a random call-ID prefix; about one in 128
    # draws is short enough to encode one byte smaller in every request.
    assert abs(first - second) <= 1.0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = run_bench("--workload", KEPT[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
