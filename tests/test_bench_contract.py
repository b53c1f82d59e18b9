"""The benchmark's output contract, on a copy of `src/` and `bench/`.

A run whose last stdout line is not one strict JSON result is measured as
malformed, and a per-layer metric whose traced public name is gone is
dropped, not failed, so both are checked here on short runs.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    d = tmp_path_factory.mktemp("bench")
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "src", d / "src", ignore=ignore)
    shutil.copytree(ROOT / "bench", d / "bench", ignore=ignore)
    return d


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


@pytest.mark.parametrize("workload, trace", [
    ("train", 1), ("eval-merge", 1), ("analyze", 1), ("train", 0),
])
def test_a_short_run_ends_in_a_complete_result(checkout, workload, trace):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.strip().splitlines()
    assert not [l for l in lines if "dropped" in l or "is gone" in l]
    result = json.loads(lines[-1], parse_constant=_reject)
    assert result["correct"] is True and result["failed"] == 0, result
    kind = "per_layer" if trace else "end_to_end"
    assert sorted(result["metrics"]) == sorted(m["name"] for m in CONTRACT[kind])
