"""Run the benchmark over several seeds and summarise it as one trajectory point.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Runs every workload once per seed with --trace 0, then once with --trace 1,
one run at a time.  Writes each run's result line, elapsed time, provenance
and load average, plus, per workload and metric, the median, the quartiles
(statistics.quantiles, n=4) and the quartile spread as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-1000:]}")
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    return {
        "seed": seed,
        "trace": trace,
        "elapsed_s": elapsed,
        "result": result,
        "provenance": report["provenance"],
        "loadavg_before": report["loadavg_before"],
        "loadavg_after": report["loadavg_after"],
        "verify_failed_checks": report["verify_failed_checks"],
        "uncalibrated_failed_rows": report["uncalibrated_failed_rows"],
    }


def _summary(runs: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    out = {}
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "n": len(v)}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default="sub-ladder,inv-grid,cli-sweep")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = _seeds(args.seeds)
    point = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = [_run(wl, s, spec["run_seconds"], 0) for s in seeds]
        for r in runs:
            print(wl, r["seed"], json.dumps(r["result"]), flush=True)
        traced = _run(wl, seeds[0], spec["run_seconds"], 1)
        point["workloads"][wl] = {
            "end_to_end": _summary(runs),
            "per_layer": _summary([traced]),
            "runs": runs + [traced],
        }
        for name, s in point["workloads"][wl]["end_to_end"].items():
            print(f"{wl} {name} median={s['median']:.6g} spread={s['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
