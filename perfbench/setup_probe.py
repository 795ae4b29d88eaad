"""Set-up probe: one fresh interpreter, from its start to the first estimate.

    python3 perfbench/setup_probe.py <workload>

imports the package, parses the workload's configurations and computes their
predictions, then prints {"predict_ms": ...}.  run.py times the whole process
from outside, so interpreter start and imports count towards setup_s.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import configs  # noqa: E402  (this file's own directory is on sys.path)
import subheat  # noqa: E402
from subheat.cli import main as cli_main  # noqa: E402


def main(workload: str) -> None:
    triples = configs.predict_configs(workload)
    start = time.perf_counter()
    for exponent, domain, kind in triples:
        if workload == "cli-sweep":
            # the CLI's own parsing and prediction, as an interactive user runs it
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["predict", "--exponent", exponent, "--domain", domain, "--time-change", kind])
            if code != 0:
                raise SystemExit(f"predict exited {code} for {exponent} {domain} {kind}")
        else:
            exp = subheat.parse_exponent(exponent)
            dom = subheat.parse_domain(domain)
            subheat.predict_spectral(exp, dom, subheat.Kind(kind))
            subheat.predict_regular(exp, dom, subheat.Kind(kind))
    print(json.dumps({"predict_ms": 1e3 * (time.perf_counter() - start)}))


if __name__ == "__main__":
    main(sys.argv[1])
