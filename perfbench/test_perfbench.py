"""The benchmark's own test: every workload at smoke size, in seconds.

    python3 -m pytest perfbench

Runs from the repository root like the benchmark itself.  Checks that
each workload passes its output checks and prints exactly the metrics
``BENCHMARK.json`` names, that a failing check is counted in
``failed``, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_checks_and_reports(workload, trace):
    res = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--size", "smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in res["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_failing_check_counts_as_failed(tmp_path):
    # the child loop, with the expected certificate value made wrong
    code = (
        "import sys, workloads, child\n"
        "workloads.EXPECTED_CERT[('chain_k2', 40)]['common_bound'] = -1\n"
        f"sys.exit(child.main(['--workload', 'certify_chain', '--seed', '1', "
        f"'--seconds', '0.3', '--size', 'smoke', '--mode', 'measure', "
        f"'--workdir', {str(tmp_path)!r}]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["ops"] >= 1 and out["failed"] == out["ops"]
    assert "common_bound" in out["problems"][0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
