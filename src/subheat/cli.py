"""Experiment runner: predictions, estimator ladders, verification suites.

Subcommands:
  predict   print the small-time rate and constant for a configuration
  estimate  run the estimators across a t-ladder and emit a CSV/JSON table
  verify    run named verification suites and emit a JSON pass/fail summary

Exit codes: 0 success, 1 suite failure, 2 configuration error, 3 unsupported
configuration, 4 runaway sampler abort.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gamma as gamma_fn

from .asymptotics import (
    expansion,
    fit_rate,
    inverse_moment,
    predict_regular,
    predict_spectral,
    stable_moment,
)
from .diagnostics import check_inverse_moments, check_levy_convergence, check_small_ball
from .estimators import (
    estimate,
    estimate_regular,
    estimate_spectral_inverse,
    estimate_spectral_subordinate,
)
from .heat_oracles import (
    Disk,
    Interval,
    exact_deficit_disk,
    exact_deficit_interval,
    exact_Q_interval,
    interval_survival_block,
    parse_domain,
)
from .levy_exponents import MixedStable, Stable, TemperedStable, parse_exponent
from .samplers import (
    Kind,
    RandomStream,
    RunawaySamplerError,
    TimeChangeSpec,
    UnsupportedConfigurationError,
    run_blocks,
)
from . import samplers

_FMT = "%.17g"

# external alias table: the historical suite labels accepted on the command
# line for compatibility with published run manifests
_SUITE_ALIASES = {
    "thm-3.6": "highindex-limit",
    "prop-3.8": "critical-limit",
    "thm-3.13": "lowindex-limit",
    "thm-3.10": "mixed-critical-limit",
    "thm-4.3": "inverse-limit",
    "thm-4.4": "expansion-identity",
    "eq-3.6": "moment-suite",
    "prop-4.2": "moment-suite",
    "prop-3.12": "levy-convergence",
}


@dataclass(frozen=True)
class RunConfig:
    exponent: str = "stable:0.5"
    domain: str = "interval:0,1"
    time_change: str = "sub"
    t: float | None = None
    t_ladder: tuple[float, ...] | None = None
    paths: int = 200_000
    seed: int = 0
    workers: int = 1
    fmt: str = "csv"
    out: str | None = None
    suite: str | None = None
    quick: bool = False
    tolerance: float | None = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.tolerance is not None and not (self.tolerance > 0.0 and math.isfinite(self.tolerance)):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")

    def ladder(self) -> tuple[float, ...]:
        if self.t_ladder:
            return self.t_ladder
        if self.t is not None:
            return (self.t,)
        raise ValueError("need --t or --t-ladder")


@dataclass(frozen=True)
class CheckResult:
    name: str
    target: float
    achieved: float
    tolerance: float
    passed: bool


def _g(x) -> str:
    return _FMT % float(x)


def _parse_ladder(text: str) -> tuple[float, ...]:
    vals = tuple(float(p) for p in text.split(","))
    if not vals or any(v <= 0.0 for v in vals):
        raise ValueError("t-ladder values must be positive")
    if not all(a > b for a, b in zip(vals, vals[1:])):
        raise ValueError("t-ladder must be strictly decreasing")
    return vals


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


_KEYS = {
    "exponent": str,
    "domain": str,
    "time-change": str,
    "t": float,
    "t-ladder": _parse_ladder,
    "paths": int,
    "seed": int,
    "workers": int,
    "format": str,
    "out": str,
    "suite": str,
    "quick": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "tolerance": float,
}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Precedence: command-line flags > config file > SUBHEAT_SEED env > defaults."""
    file_vals = {}
    if getattr(args, "config", None):
        raw = _load_config_file(args.config)
        for key, val in raw.items():
            if key not in _KEYS:
                raise ValueError(f"unknown config key {key!r}")
            file_vals[key] = _KEYS[key](val)

    def pick(flag_name, file_key, default):
        flag = getattr(args, flag_name, None)
        if flag is not None:
            return flag
        if file_key in file_vals:
            return file_vals[file_key]
        return default

    seed_default = 0
    env_seed = os.environ.get("SUBHEAT_SEED")
    if env_seed is not None:
        seed_default = int(env_seed)
    kind = pick("time_change", "time-change", "sub")
    if kind not in ("sub", "inv"):
        raise ValueError(f"time-change must be 'sub' or 'inv', got {kind!r}")
    fmt = pick("format", "format", "csv")
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    quick = getattr(args, "quick", False) or file_vals.get("quick", False)
    return RunConfig(
        exponent=pick("exponent", "exponent", "stable:0.5"),
        domain=pick("domain", "domain", "interval:0,1"),
        time_change=kind,
        t=pick("t", "t", None),
        t_ladder=pick("t_ladder", "t-ladder", None),
        paths=pick("paths", "paths", 200_000),
        seed=pick("seed", "seed", seed_default),
        workers=pick("workers", "workers", 1),
        fmt=fmt,
        out=pick("out", "out", None),
        suite=pick("suite", "suite", None),
        quick=bool(quick),
        tolerance=pick("tolerance", "tolerance", None),
    )


def adaptive_spectral(exp, dom, t, stream, kind, *, rel_target=0.005, n0=200_000, n_max=1_600_000, workers=1):
    """Double n until the stderr is at most rel_target of the estimated deficit.

    Blocks reuse the same per-index streams on each doubling, so the final
    estimate is the deterministic function of (seed, final n).
    """
    n = n0
    while True:
        est = estimate(TimeChangeSpec(exp, kind), dom, t, n, stream, workers=workers)
        if est.stderr <= rel_target * est.deficit or n >= n_max:
            return est
        n *= 2


def cmd_predict(cfg: RunConfig) -> str:
    exp = parse_exponent(cfg.exponent)
    dom = parse_domain(cfg.domain)
    kind = Kind(cfg.time_change)
    rows = []
    for quantity, pred_fn in (("spectral", predict_spectral), ("regular", predict_regular)):
        pred = pred_fn(exp, dom, kind)
        rows.append(
            {
                "quantity": quantity,
                "theorem_tag": pred.theorem_tag,
                "rate": pred.rate.label,
                "constant": pred.constant,
            }
        )
    if cfg.fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    lines = ["quantity,theorem_tag,rate,constant"]
    for r in rows:
        lines.append(f"{r['quantity']},{r['theorem_tag']},{r['rate']},{_g(r['constant'])}")
    return "\n".join(lines) + "\n"


# each quantity's rows read their own stream, keyed by the quantity's place
# in the domain's ORACLES table: spectral from key 0, regular from 2^40
_QUANTITY_KEY_STRIDE = 2**40


def _rate_at(pred, t) -> float:
    """pred's rate at ladder time t; refuses t unless the rate is finite and positive."""
    try:
        rate = float(pred.rate_value(t)) if 0.0 < t < math.inf else math.nan
    except (ArithmeticError, ValueError):
        rate = math.nan
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(
            f"t must be positive and finite, and the rate {pred.rate.label} finite and positive "
            f"there; got t = {t:g}, rate {rate:g}"
        )
    return rate


def cmd_estimate(cfg: RunConfig) -> str:
    exp = parse_exponent(cfg.exponent)
    dom = parse_domain(cfg.domain)
    spec = TimeChangeSpec(exp, Kind(cfg.time_change))
    offsets = [i * _QUANTITY_KEY_STRIDE for i in range(len(dom.ORACLES))]
    streams = samplers.disjoint_spawns(RandomStream(cfg.seed), offsets, cfg.paths)
    rows = []
    pred = predict_spectral(exp, dom, spec.kind)
    # the regular prediction's rate is the same function; every rung's rate
    # comes first, so that a rung out of range fails before any estimate runs
    for t, rate in [(t, _rate_at(pred, t)) for t in cfg.ladder()]:
        for quantity, stream in zip(dom.ORACLES, streams):
            e = estimate(spec, dom, t, cfg.paths, stream, quantity, workers=cfg.workers)
            rows.append((quantity, t, e.value, e.stderr, rate, e.deficit / rate, e.n_paths))
    if cfg.fmt == "json":
        payload = [
            {
                "t": t,
                "quantity": q,
                "value": v,
                "stderr": se,
                "rate_value": rv,
                "ratio": ratio,
                "n_paths": n,
                "seed": cfg.seed,
            }
            for q, t, v, se, rv, ratio, n in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    lines = ["t,quantity,value,stderr,rate_value,ratio,n_paths,seed"]
    for q, t, v, se, rv, ratio, n in rows:
        lines.append(
            f"{_g(t)},{q},{_g(v)},{_g(se)},{_g(rv)},{_g(ratio)},{n},{cfg.seed}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

_UNIT = Interval(0.0, 1.0)


def _suite_stream(cfg: RunConfig, index: int) -> RandomStream:
    return RandomStream(cfg.seed, (index + 1) * 2**48)


def _check(name, target, achieved, tol):
    return CheckResult(name, target, achieved, tol, abs(achieved - target) <= tol)


def _ratio_check(name, est, pred, t, rel_tol, extra_tol_se=4.0):
    # the heat lost at t over pred's rate, against pred's constant
    rate = float(pred.rate_value(t))
    tol = max(extra_tol_se * est.stderr / rate, rel_tol * abs(pred.constant))
    return _check(name, pred.constant, est.deficit / rate, tol)


def _sample_mean_check(name, x, target):
    se = float(x.std(ddof=1)) / math.sqrt(x.size)
    return _check(name, target, float(x.mean()), 4.0 * se)


def _suite_highindex(cfg: RunConfig, quick: bool) -> list[CheckResult]:
    exp = Stable(0.75)
    t = 1e-8
    n = 200_000 if quick else 1_000_000
    pred = predict_spectral(exp, _UNIT, Kind.SUBORDINATOR)
    est = estimate_spectral_subordinate(exp, _UNIT, t, n, _suite_stream(cfg, 1), workers=cfg.workers)
    rel = cfg.tolerance if cfg.tolerance is not None else 0.03
    return [_ratio_check("highindex-ratio", est, pred, t, rel)]


def _critical_ladder(cfg, exp, n, tag):
    # The theorem gives only the limit of the ratio; at t = 1e-10 the
    # lower-order 1/log(1/t) correction still holds it well above the
    # constant (10.66% for the mixed exponent).  The final check therefore
    # compares the limit extrapolated from the last two rungs by fit_rate.
    pred = predict_spectral(exp, _UNIT, Kind.SUBORDINATOR)
    stream = _suite_stream(cfg, 2 if isinstance(exp, Stable) else 4)
    samples = []
    ladder = (1e-6, 1e-8, 1e-10)
    for t in ladder:
        est = estimate_spectral_subordinate(exp, _UNIT, t, n, stream, workers=cfg.workers)
        samples.append((t, est.deficit, est.stderr))
    rel = cfg.tolerance if cfg.tolerance is not None else 0.10
    fit = fit_rate(samples, pred, rel)
    monotone = all(a > b for a, b in zip(fit.ratios, fit.ratios[1:]))
    return [
        CheckResult(f"{tag}-monotone", 1.0, 1.0 if monotone else 0.0, 0.0, monotone),
        CheckResult(
            f"{tag}-final", pred.constant, float(fit.limit), rel * pred.constant, bool(fit.passed)
        ),
    ]


def _suite_critical(cfg: RunConfig, quick: bool) -> list[CheckResult]:
    n = 150_000 if quick else 800_000
    return _critical_ladder(cfg, Stable(0.5), n, "critical")


def _suite_mixed_critical(cfg: RunConfig, quick: bool) -> list[CheckResult]:
    # The exact mixed ratio at t = 1e-10 is 1.40893, 0.6% outside the 10%
    # band (which ends at 1.40057), so only the extrapolated limit can pass.
    # The extrapolation r1 + 4 (r1 - r0) multiplies the last rung's error by
    # five, so this suite keeps a tighter standard error than the pure
    # critical ladder for its verdict to be reproducible across seeds.
    n = 400_000 if quick else 3_200_000
    exp = MixedStable(((0.25, 1.0), (0.5, 1.0)))
    return _critical_ladder(cfg, exp, n, "mixed-critical")


def _suite_lowindex(cfg: RunConfig, quick: bool) -> list[CheckResult]:
    exp = Stable(0.25)
    t = 1e-6
    pred = predict_spectral(exp, _UNIT, Kind.SUBORDINATOR)
    n0 = 200_000 if quick else 1_000_000
    est = adaptive_spectral(
        exp, _UNIT, t, _suite_stream(cfg, 3), Kind.SUBORDINATOR,
        rel_target=0.005, n0=n0, n_max=2 * n0, workers=cfg.workers,
    )
    rel = cfg.tolerance if cfg.tolerance is not None else 0.02
    return [_ratio_check("lowindex-ratio", est, pred, t, rel)]


def _suite_inverse(cfg: RunConfig, quick: bool) -> list[CheckResult]:
    t = 1e-6
    n = 100_000 if quick else 400_000
    rel = cfg.tolerance if cfg.tolerance is not None else 0.02
    out = []
    # spectral rows from key i 2^20, regular ones from i 2^20 + 2^19
    offsets = [i * 2**20 + q * 2**19 for i in range(3) for q in range(2)]
    keys = samplers.disjoint_spawns(_suite_stream(cfg, 5), offsets, n)
    for i, beta in enumerate((0.25, 0.5, 0.75)):
        exp = Stable(beta)
        est = estimate_spectral_inverse(exp, _UNIT, t, n, keys[2 * i], workers=cfg.workers)
        out.append(_ratio_check(f"inverse-spectral-b{beta:g}", est, predict_spectral(exp, _UNIT, Kind.INVERSE), t, rel))
        est = estimate_regular(exp, _UNIT, t, n, keys[2 * i + 1], Kind.INVERSE, workers=cfg.workers)
        out.append(_ratio_check(f"inverse-regular-b{beta:g}", est, predict_regular(exp, _UNIT, Kind.INVERSE), t, rel))
    return out


def _suite_inverse_universality(cfg: RunConfig, quick: bool) -> list[CheckResult]:
    # the criterion names the grid sampler, so the step is set explicitly:
    # without it a tempered clock this deep takes the duality estimator
    exp = TemperedStable(0.5, 1.0)
    t = 1e-5
    n = 512 if quick else 2048
    pred = predict_spectral(exp, _UNIT, Kind.INVERSE)
    est = estimate_spectral_inverse(
        exp, _UNIT, t, n, _suite_stream(cfg, 6), workers=cfg.workers, grid_step=t * 1e-3
    )
    rel = cfg.tolerance if cfg.tolerance is not None else 0.05
    return [_ratio_check("universality-ratio", est, pred, t, rel, extra_tol_se=0.0)]


def _suite_expansion(cfg: RunConfig, quick: bool) -> list[CheckResult]:
    out = []
    worst = 0.0
    for beta in np.linspace(0.05, 0.95, 19):
        got = expansion(beta, [4.0 / math.sqrt(math.pi)])[0][0]
        want = 2.0 / gamma_fn(1.0 + beta / 2.0)
        worst = max(worst, abs(got - want) / want)
    out.append(_check("expansion-identity", 0.0, worst, 1e-12))
    return out


def _suite_moments(cfg: RunConfig, quick: bool) -> list[CheckResult]:
    n = 200_000 if quick else 1_000_000
    out = []
    stream = _suite_stream(cfg, 8)
    # stable draws from key i 2^20, inverse ones from 2^30 + i 2^20, the
    # moment ladder from 2^31
    offsets = [i * 2**20 for i in range(3)] + [2**30 + i * 2**20 for i in range(3)] + [2**31]
    keys = samplers.disjoint_spawns(stream, offsets, n)
    for i, (beta, gam) in enumerate(((0.75, 0.25), (0.5, 0.2), (0.25, 0.1))):
        d = samplers.sample_stable(beta, 1.0, keys[i], n)
        target = stable_moment(beta, gam)
        out.append(_sample_mean_check(f"stable-moment-b{beta:g}-g{gam:g}", d**gam, target))
    for i, (beta, p) in enumerate(((0.25, 0.5), (0.5, 0.5), (0.75, 1.0))):
        spec = TimeChangeSpec(Stable(beta), Kind.INVERSE)
        e = samplers.sample_inverse(spec, 1.0, keys[3 + i], n)
        target = inverse_moment(beta, p)
        out.append(_sample_mean_check(f"inverse-moment-b{beta:g}-p{p:g}", e**p, target))
    report = check_inverse_moments(Stable(0.5), 0.5, (1e-1, 1e-3, 1e-6), n // 2, keys[6])
    target = report.target
    all_points = all(
        abs(stat - target) <= max(4.0 * se, 0.02 * target) for _, stat, se in report.points
    )
    out.append(
        CheckResult(
            "inverse-moment-t-independence", target, report.fitted_limit, 0.02 * target,
            bool(report.passed and all_points),
        )
    )
    return out


def _suite_levy(cfg: RunConfig, quick: bool) -> list[CheckResult]:
    n = 100_000 if quick else 400_000
    report = check_levy_convergence(
        Stable(0.25), "power-exp:0.5", (1e-2, 1e-3, 1e-4), n, _suite_stream(cfg, 9)
    )
    t_f, stat_f, se_f = report.points[-1]
    tol = max(4.0 * se_f, 0.02 * abs(report.target))
    return [CheckResult("levy-final", report.target, stat_f, tol, report.passed)]


def _suite_small_ball(cfg: RunConfig, quick: bool) -> list[CheckResult]:
    n = 100_000 if quick else 400_000
    out = []
    ladder = tuple(np.geomspace(1e-2, 1e-4, 5))
    keys = samplers.disjoint_spawns(_suite_stream(cfg, 10), [0, 2**20], n)
    for beta, key in zip((0.25, 0.5), keys):
        report = check_small_ball(Stable(beta), 1.0, ladder, n, key)
        out.append(
            CheckResult(
                f"small-ball-b{beta:g}", report.target, report.fitted_slope, 0.1, report.passed
            )
        )
    return out


def _bridge_walk_kernel(u, stream, lo, size, n):
    return interval_survival_block(
        1.0, u, stream, strat_index=lo, strat_total=n, n=size, n_steps=128
    )


def _suite_oracle(cfg: RunConfig, quick: bool) -> list[CheckResult]:
    out = []
    u_star = _UNIT.length ** 2 / 10.0
    q_lo = exact_Q_interval(_UNIT, u_star * (1.0 - 1e-13))
    q_hi = exact_Q_interval(_UNIT, u_star * (1.0 + 1e-13))
    diff = abs(q_lo - q_hi)
    out.append(_check("series-switch-continuity", 0.0, diff, 1e-12))
    u = 1e-10
    deficit = exact_deficit_interval(_UNIT, u)
    want = 4.0 / math.sqrt(math.pi)
    rel = abs(deficit / math.sqrt(u) - want) / want
    out.append(_check("short-time-constant", 0.0, rel, 1e-4))
    # the disk oracle's two forms meet at s = u/R^2 = 0.01, and below it the
    # deficit is 4 sqrt(pi s) - pi s + O(s^(3/2)), the curvature term -pi s
    disk = Disk(1.0)
    d_lo = exact_deficit_disk(disk, 0.01 * (1.0 - 1e-13))
    d_hi = exact_deficit_disk(disk, 0.01 * (1.0 + 1e-13))
    out.append(_check("disk-switch-continuity", 0.0, abs(d_lo - d_hi), 1e-12))
    s = 1e-10
    curvature = (exact_deficit_disk(disk, s) - 4.0 * math.sqrt(math.pi * s)) / s
    out.append(_check("disk-curvature-term", 0.0, abs(curvature / math.pi + 1.0), 1e-4))
    # a bridge-corrected killed walk, the path machinery of mc_Q_disk, run
    # where an exact answer exists
    n = 100_000 if quick else 400_000
    u_w = 0.02
    walk, _ = run_blocks(_bridge_walk_kernel, u_w, n, _suite_stream(cfg, 11), cfg.workers)
    exact = exact_Q_interval(_UNIT, u_w)
    rel_walk = abs(walk - exact) / exact
    out.append(_check("bridge-walk-vs-oracle", 0.0, rel_walk, 0.005))
    return out


def _suite_determinism(cfg: RunConfig, quick: bool) -> list[CheckResult]:
    base = RunConfig(
        exponent="stable:0.75",
        domain="interval:0,1",
        time_change="sub",
        t_ladder=(1e-3,),
        paths=65_536,
        seed=cfg.seed,
        workers=1,
    )
    one = cmd_estimate(base)
    two = cmd_estimate(replace(base, workers=2))
    same = one == two
    return [CheckResult("worker-count-determinism", 1.0, 1.0 if same else 0.0, 0.0, same)]


_SUITES = {
    "highindex-limit": _suite_highindex,
    "critical-limit": _suite_critical,
    "lowindex-limit": _suite_lowindex,
    "mixed-critical-limit": _suite_mixed_critical,
    "inverse-limit": _suite_inverse,
    "inverse-universality": _suite_inverse_universality,
    "expansion-identity": _suite_expansion,
    "moment-suite": _suite_moments,
    "levy-convergence": _suite_levy,
    "small-ball": _suite_small_ball,
    "oracle-integrity": _suite_oracle,
    "determinism": _suite_determinism,
}


def _canonical_suite(name: str) -> str:
    canon = _SUITE_ALIASES.get(name, name)
    if canon not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(_SUITES)}")
    return canon


def run_suite(name: str, cfg: RunConfig) -> list[CheckResult]:
    """Run one named verification suite and return its check results."""
    return _SUITES[_canonical_suite(name)](cfg, cfg.quick)


def cmd_verify(cfg: RunConfig) -> tuple[int, str]:
    names = list(_SUITES) if cfg.suite in (None, "all") else [_canonical_suite(cfg.suite)]
    suites_out = []
    all_pass = True
    for name in names:
        start = time.perf_counter()
        checks = _SUITES[name](cfg, cfg.quick)
        elapsed = time.perf_counter() - start
        passed = all(c.passed for c in checks)
        all_pass = all_pass and passed
        head = next((c for c in checks if not c.passed), checks[-1])
        suites_out.append(
            {
                "suite": name,
                "passed": bool(passed),
                "runtime_s": round(elapsed, 3),
                "target": float(head.target),
                "achieved": float(head.achieved),
                "tolerance": float(head.tolerance),
                "checks": [
                    {
                        "name": c.name,
                        "target": float(c.target),
                        "achieved": float(c.achieved),
                        "tolerance": float(c.tolerance),
                        "passed": bool(c.passed),
                    }
                    for c in checks
                ],
            }
        )
    payload = {"passed": all_pass, "seed": cfg.seed, "quick": cfg.quick, "suites": suites_out}
    return (0 if all_pass else 1), json.dumps(payload, indent=2) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subheat",
        description="heat content estimation for time-changed Brownian motions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("predict", "estimate", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--exponent", help="stable:<b> | tempered:<b>,<theta> | mixed:<b1>*<w1>+<b2>*<w2>+...")
        p.add_argument("--domain", help="interval:<a>,<b> | disk:<R>")
        p.add_argument("--time-change", dest="time_change", choices=("sub", "inv"))
        p.add_argument("--t", type=float)
        p.add_argument("--t-ladder", dest="t_ladder", type=_parse_ladder)
        p.add_argument("--paths", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument("--format", dest="format", choices=("csv", "json"))
        p.add_argument("--out")
        p.add_argument("--config", help="flat key=value file; flags take precedence")
        p.add_argument("--tolerance", type=float)
        if name == "verify":
            p.add_argument("--suite", help="suite name or 'all'")
            p.add_argument("--quick", action="store_true", default=None)
    return parser


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "predict":
            _emit(cmd_predict(cfg), cfg.out)
            return 0
        if args.command == "estimate":
            _emit(cmd_estimate(cfg), cfg.out)
            return 0
        code, text = cmd_verify(cfg)
        _emit(text, cfg.out)
        return code
    except UnsupportedConfigurationError as exc:
        print(f"unsupported configuration: {exc}", file=sys.stderr)
        return 3
    except RunawaySamplerError as exc:
        print(f"runaway sampler: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"configuration error: {type(exc).__name__} {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
