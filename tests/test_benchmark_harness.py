import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"bare {name} in the result line")


@pytest.mark.parametrize("workload", ["jones_cross", "kashaev_exact", "volume_float"])
def test_traced_run_ends_with_a_well_formed_result(workload):
    # the last stdout line is the run's result: strict JSON with every
    # per-layer metric of BENCHMARK.json, each finite, and no traced target gone
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert not any("missing (traced target gone)" in line for line in lines)
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
