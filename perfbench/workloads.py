"""The three workloads: their rows, their exact references, and one pass.

A pass runs every operation of a workload once with inputs drawn from one
pass seed.  An operation is one estimate row or one verify check.  Library
workloads call the package's public estimators; cli-sweep calls
subheat.cli.main in process, as a user's shell would.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from typing import Callable

import subheat
from subheat import Interval, Kind, RandomStream
from subheat.cli import main as cli_main

import configs
import references as ref

UNIT = Interval(0.0, 1.0)
DISK_WALK_BAND = 0.005  # relative bias the bridge-corrected walk is allowed (oracle-integrity)


@dataclass(frozen=True)
class Reference:
    quantity: str  # "spectral" or "regular"
    content: float  # exact value the estimator targets
    scale: float  # |deficit| for spectral rows, |content| for regular rows: the 1% base
    volume: float
    band: float = 0.0  # absolute allowance for a biased walk, on top of 5 sigma
    calibrated: bool = True  # False: the estimator's stderr is known not to hold here


@dataclass
class RowResult:
    name: str
    value: float
    stderr: float
    wall: float
    error: str | None = None


@dataclass
class PassResult:
    wall: float = 0.0
    rows: list[RowResult] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)  # verify checks
    outputs: list[str] = field(default_factory=list)  # CLI stdout, for the worker-count check
    errors: list[str] = field(default_factory=list)  # calls that exited with a code other than 0 or 1

    def outcome(self) -> tuple:
        """Everything the pass computed, without its times: equal for equal inputs."""
        rows = [(r.name, repr(r.value), repr(r.stderr), r.error) for r in self.rows]
        return rows, self.checks, self.outputs, self.errors


@dataclass(frozen=True)
class LibraryRow:
    name: str
    span: str
    call: Callable[[RandomStream], subheat.Estimate]
    reference: Reference


def _interval_spectral(clock, calibrated: bool = True) -> Reference:
    deficit = ref.interval_deficit(UNIT.length, clock)
    return Reference("spectral", UNIT.volume - deficit, deficit, UNIT.volume, calibrated=calibrated)


def _interval_regular(clock, calibrated: bool = True) -> Reference:
    content = ref.interval_regular(UNIT.length, clock)
    return Reference("regular", content, content, UNIT.volume, calibrated=calibrated)


def _sub_ladder_rows() -> list[LibraryRow]:
    rows = []
    for text in configs.SUB_LADDER_EXPONENTS:
        exp = subheat.parse_exponent(text)
        for t in configs.SUB_LADDER_RUNGS:
            clock = ref.subordinator_clock(exp, t)
            calibrated = configs.sub_ladder_calibrated(text, t, "spectral")
            rows.append(
                LibraryRow(
                    f"{text}/sub/spectral/t={t:g}",
                    "estimators.estimate_spectral_subordinate",
                    lambda s, exp=exp, t=t: subheat.estimate_spectral_subordinate(
                        exp, UNIT, t, configs.SUB_LADDER_PATHS, s
                    ),
                    _interval_spectral(clock, calibrated),
                )
            )
            calibrated = configs.sub_ladder_calibrated(text, t, "regular")
            # rows that enter tts_regular_s get the larger path count
            n = configs.SUB_LADDER_REGULAR_PATHS if calibrated else configs.SUB_LADDER_PATHS
            rows.append(
                LibraryRow(
                    f"{text}/sub/regular/t={t:g}",
                    "estimators.estimate_regular",
                    lambda s, exp=exp, t=t, n=n: subheat.estimate_regular(exp, UNIT, t, n, s, Kind.SUBORDINATOR),
                    _interval_regular(clock, calibrated),
                )
            )
    return rows


def _inv_grid_rows() -> list[LibraryRow]:
    exp = subheat.parse_exponent(configs.INV_GRID_EXPONENT)
    t, n = configs.INV_GRID_T, configs.INV_GRID_PATHS
    deficit, regular = ref.half_tempered_inverse(UNIT.length, exp.theta, t)
    name = f"{configs.INV_GRID_EXPONENT}/inv/%s/t={t:g}"
    return [
        LibraryRow(
            name % "spectral",
            "estimators.estimate_spectral_inverse",
            lambda s: subheat.estimate_spectral_inverse(exp, UNIT, t, n, s),
            Reference("spectral", UNIT.volume - deficit, deficit, UNIT.volume),
        ),
        LibraryRow(
            name % "regular",
            "estimators.estimate_regular",
            lambda s: subheat.estimate_regular(exp, UNIT, t, n, s, Kind.INVERSE),
            Reference("regular", regular, regular, UNIT.volume),
        ),
    ]


class LibraryWorkload:
    """Rows that call the package's estimators directly, workers=1."""

    def __init__(self, rows: list[LibraryRow]):
        self.rows = rows
        self.references = {r.name: r.reference for r in rows}

    def run_pass(self, seed: int, tracer) -> PassResult:
        out = PassResult()
        start = time.perf_counter()
        with tracer.span("bench.pass"):
            for i, row in enumerate(self.rows):
                t0 = time.perf_counter()
                try:
                    with tracer.span(row.span):
                        est = row.call(RandomStream(seed, i << 40))
                    out.rows.append(RowResult(row.name, est.value, est.stderr, time.perf_counter() - t0))
                except Exception as exc:  # a raising row is a failed operation, not a crash
                    out.rows.append(RowResult(row.name, math.nan, math.nan, time.perf_counter() - t0, repr(exc)))
        out.wall = time.perf_counter() - start
        return out


# ---------------------------------------------------------------------------
# cli-sweep
# ---------------------------------------------------------------------------

_RUNTIME = re.compile(r'"runtime_s": [0-9.eE+-]+')


def _estimate_argv(exponent, domain, kind, ladder) -> list[str]:
    return [
        "estimate", "--exponent", exponent, "--domain", domain, "--time-change", kind,
        "--t-ladder", ladder, "--paths", str(configs.CLI_PATHS), "--format", "json",
    ]


def _row_name(exponent, domain, kind, t, quantity) -> str:
    return f"{exponent}/{domain}/{kind}/{quantity}/t={t:g}"


class CliWorkload:
    """Short interactive calls through subheat.cli.main at --workers 2."""

    def __init__(self):
        self.references: dict[str, Reference] = {}
        for exponent, domain, kind, ladder in configs.CLI_ESTIMATES:
            exp, dom = subheat.parse_exponent(exponent), subheat.parse_domain(domain)
            for t in (float(x) for x in ladder.split(",")):
                clock = ref.clock_for(exp, kind, t)
                if isinstance(dom, Interval):
                    self.references[_row_name(exponent, domain, kind, t, "spectral")] = _interval_spectral(clock)
                    self.references[_row_name(exponent, domain, kind, t, "regular")] = _interval_regular(clock)
                else:
                    deficit = ref.disk_deficit(dom.radius, clock)
                    content = dom.volume - deficit
                    self.references[_row_name(exponent, domain, kind, t, "spectral")] = Reference(
                        "spectral", content, deficit, dom.volume, DISK_WALK_BAND * content
                    )

    @staticmethod
    def _call(argv, tracer) -> tuple[int, str, float]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with tracer.span("cli.main"), contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue(), time.perf_counter() - t0

    def run_pass(self, seed: int, tracer, workers: int = configs.CLI_WORKERS) -> PassResult:
        out = PassResult()
        common = ["--seed", str(seed), "--workers", str(workers)]
        start = time.perf_counter()
        with tracer.span("bench.pass"):
            for exponent, domain, kind, ladder in configs.CLI_ESTIMATES:
                code, text, wall = self._call(_estimate_argv(exponent, domain, kind, ladder) + common, tracer)
                out.outputs.append(text)
                if code != 0:
                    out.errors.append(f"estimate {exponent} {domain} {kind} exited {code}")
                    continue  # its rows are missing from the pass, so they fail
                rows = json.loads(text)
                for r in rows:
                    name = _row_name(exponent, domain, kind, r["t"], r["quantity"])
                    out.rows.append(RowResult(name, r["value"], r["stderr"], wall / len(rows)))
            for suite in configs.CLI_SUITES:
                code, text, _ = self._call(["verify", "--quick", "--suite", suite] + common, tracer)
                out.outputs.append(_RUNTIME.sub('"runtime_s": _', text))
                if code not in (0, 1):
                    out.checks.append((suite, False))
                    out.errors.append(f"verify --suite {suite} exited {code}")
                    continue
                for c in json.loads(text)["suites"][0]["checks"]:
                    out.checks.append((c["name"], bool(c["passed"])))
        out.wall = time.perf_counter() - start
        return out


def build(name: str):
    if name == "sub-ladder":
        return LibraryWorkload(_sub_ladder_rows())
    if name == "inv-grid":
        return LibraryWorkload(_inv_grid_rows())
    if name == "cli-sweep":
        return CliWorkload()
    raise ValueError(f"unknown workload {name!r}")
