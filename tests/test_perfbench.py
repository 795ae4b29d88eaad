import ast
import importlib
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


def _subheat_references(tree):
    """(dotted owner, name) of every name a module imports from subheat or
    reads off a subheat module it bound."""
    bound = {}  # local name -> the dotted subheat path it stands for
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "subheat":
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "subheat":
            for alias in node.names:
                refs.append((node.module, alias.name))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            refs.append((bound[node.value.id], node.attr))
    return refs


def _resolves(dotted):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            try:
                obj = importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
    return True


def test_every_subheat_name_the_benchmark_uses_resolves():
    # the benchmark runs from its own files, which a change to the package
    # does not edit; a public name it still uses must not go missing
    refs = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        refs.update(_subheat_references(ast.parse(path.read_text(encoding="utf-8"), str(path))))
    assert ("subheat", "check_small_ball") in refs and ("subheat.cli", "main") in refs
    assert [f"{owner}.{name}" for owner, name in sorted(refs) if not _resolves(f"{owner}.{name}")] == []


def test_every_public_name_resolves():
    import subheat

    assert [name for name in subheat.__all__ if not hasattr(subheat, name)] == []
