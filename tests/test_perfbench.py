import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["inv-grid", "sub-ladder"])
def test_traced_benchmark_run_reports_every_layer(workload):
    # the traced run is the only one that runs perfbench/layers.py, which
    # calls every verify --quick suite through cli.main and every public
    # function that it names; sub-ladder's pass adds the importance-sampled
    # and plain subordinator rows of all three regimes
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=300.0)
    assert done.returncode == 0, done.stderr.decode()
    result = json.loads(done.stdout.decode().splitlines()[-1])
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(result["metrics"]) == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
