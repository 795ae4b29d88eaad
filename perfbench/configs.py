"""Configurations of the three workloads, as plain data.

Kept free of imports so the set-up probe can read them without paying for
anything but the package itself.
"""

from __future__ import annotations

UNIT = "interval:0,1"

# Subordinator clocks covering the three small-time regimes: b > 1/2 (plain
# Kanter and tempered draws), b = 1/2 and b < 1/2 (importance-sampled draws).
SUB_LADDER_EXPONENTS = (
    "stable:0.75",
    "stable:0.5",
    "stable:0.25",
    "tempered:0.25,1",
    "tempered:0.75,1",
    "mixed:0.25*1+0.5*1",
)
SUB_LADDER_RUNGS = (1e-4, 1e-6, 1e-8, 1e-10)
SUB_LADDER_PATHS = 131_072
# regular rows are plain draws at about 0.1 us a path; more paths steady
# their heavy-tailed stderr, which tts_regular_s squares
SUB_LADDER_REGULAR_PATHS = 1_048_576

# Every clock runs spectral and regular content on every rung, but the
# estimators' stderr is not calibrated on all of them (see README.md, "Rows
# with an uncalibrated stderr"): high-index clocks (plain Kanter sampling)
# only on the 1e-4 rung, and regular content (no importance sampling) only on
# the 1e-4 rung and only for REGULAR_EXPONENTS.  The other rows are timed and
# gated, and their failures counted, but they leave `correct` and tts_* alone.
HIGH_INDEX = ("stable:0.75", "tempered:0.75,1")
REGULAR_EXPONENTS = ("stable:0.75", "tempered:0.75,1", "stable:0.5", "mixed:0.25*1+0.5*1")


def sub_ladder_calibrated(exponent: str, t: float, quantity: str) -> bool:
    """Whether the estimator's reported stderr is known to hold on this sub-ladder row."""
    if t != SUB_LADDER_RUNGS[0]:
        return quantity == "spectral" and exponent not in HIGH_INDEX
    return quantity == "spectral" or exponent in REGULAR_EXPONENTS


INV_GRID_EXPONENT = "tempered:0.5,1"
INV_GRID_T = 1e-3
INV_GRID_PATHS = 512

CLI_WORKERS = 2
CLI_PATHS = 65_536  # two blocks, so every estimate call starts a process pool
CLI_ESTIMATES = (
    # (exponent, domain, time change, t-ladder)
    ("stable:0.75", UNIT, "sub", "1e-2,1e-3,1e-4"),
    ("stable:0.5", UNIT, "inv", "1e-2,1e-3,1e-4"),
    ("stable:0.75", "disk:1", "sub", "1e-2,1e-3"),
    ("stable:0.5", "disk:1", "inv", "1e-2,1e-3"),
)
# every verify suite but inverse-universality, which is grid work (inv-grid)
CLI_SUITES = (
    "highindex-limit",
    "critical-limit",
    "lowindex-limit",
    "mixed-critical-limit",
    "inverse-limit",
    "expansion-identity",
    "moment-suite",
    "levy-convergence",
    "small-ball",
    "oracle-integrity",
    "determinism",
)
# Fails by design at its stated depth: the exact ratio at t = 1e-10 is
# 1.40894 against a band ending at 1.40057.  Counted as failed, never hidden.
KNOWN_FAILING_CHECKS = ("mixed-critical-final",)


def predict_configs(workload: str) -> list[tuple[str, str, str]]:
    """(exponent, domain, time change) triples a workload predicts before its
    first estimate."""
    if workload == "sub-ladder":
        return [(e, UNIT, "sub") for e in SUB_LADDER_EXPONENTS]
    if workload == "inv-grid":
        return [(INV_GRID_EXPONENT, UNIT, "inv")]
    if workload == "cli-sweep":
        return [(e, d, k) for e, d, k, _ in CLI_ESTIMATES]
    raise ValueError(f"unknown workload {workload!r}")
