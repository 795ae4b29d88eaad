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

from .asymptotics import expansion, fit_rate, inverse_moment, predict, small_time_rate, stable_moment
from .diagnostics import check_inverse_moments, check_levy_convergence, check_small_ball
from .estimators import estimate
from .heat_oracles import (
    QUANTITIES,
    REGULAR,
    SPECTRAL,
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
        if self.time_change not in ("sub", "inv"):
            raise ValueError(f"time-change must be 'sub' or 'inv', got {self.time_change!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.fmt!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.tolerance is not None and not (self.tolerance > 0.0 and math.isfinite(self.tolerance)):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")


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


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of 1/true/yes/on or 0/false/no/off, got {text!r}") from None


# each setting once: config key (the flag is --key) -> (RunConfig field,
# parser of its text, help)
_KEYS = {
    "exponent": ("exponent", str, "stable:<b> | tempered:<b>,<theta> | mixed:<b1>*<w1>+<b2>*<w2>+..."),
    "domain": ("domain", str, "interval:<a>,<b> | disk:<R>"),
    "time-change": ("time_change", str, "sub | inv"),
    "t": ("t_ladder", float, "one time, the same as a one-rung --t-ladder"),
    "t-ladder": ("t_ladder", _parse_ladder, "strictly decreasing times, comma-separated"),
    "paths": ("paths", int, "Monte Carlo paths per estimate"),
    "seed": ("seed", int, "seed of the counter-based stream"),
    "workers": ("workers", int, "processes for the Monte Carlo blocks"),
    "format": ("fmt", str, "csv | json"),
    "out": ("out", str, "write the output to this file instead of stdout"),
    "suite": ("suite", str, "suite name or 'all'"),
    "quick": ("quick", _parse_bool, "reduced path counts"),
    "tolerance": ("tolerance", float, "relative band of the six limit suites' checks; the other suites ignore it"),
}


def _load_config_file(path: str) -> dict:
    """The file's key = value lines, each value read by its key's parser."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _KEYS:
                raise ValueError(f"unknown config key {key!r}")
            out[key] = _KEYS[key][1](val)
    return out


def _level(values: dict) -> dict:
    """One precedence level's {key: value} as {RunConfig field: value}; t -> (t,)."""
    out = {}
    for key, val in values.items():
        field = _KEYS[key][0]
        if field in out:  # only --t and --t-ladder share a field
            raise ValueError("give --t or --t-ladder, not both")
        out[field] = (val,) if key == "t" else val
    return out


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Precedence: command-line flags > config file > SUBHEAT_SEED env > the
    RunConfig defaults, which only RunConfig declares."""
    found = _level(_load_config_file(args.config)) if args.config else {}
    env_seed = os.environ.get("SUBHEAT_SEED")
    if env_seed is not None:
        found.setdefault("seed", int(env_seed))
    flags = {key: getattr(args, key.replace("-", "_"), None) for key in _KEYS}
    found.update(_level({key: val for key, val in flags.items() if val is not None}))
    return RunConfig(**found)


def _table(rows: list[dict], fmt: str) -> str:
    """rows as JSON, or as CSV headed by their keys with floats in 17 digits."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    lines = [",".join(rows[0])]
    lines += [",".join(_g(v) if isinstance(v, float) else str(v) for v in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_predict(cfg: RunConfig) -> str:
    exp = parse_exponent(cfg.exponent)
    dom = parse_domain(cfg.domain)
    kind = Kind(cfg.time_change)
    rows = []
    for q in QUANTITIES.values():
        pred = predict(exp, dom, kind, q)
        rows.append(
            {"quantity": q.name, "theorem_tag": pred.theorem_tag, "rate": pred.rate.label, "constant": pred.constant}
        )
    return _table(rows, cfg.fmt)


# each quantity's rows read their own stream, keyed by the quantity's place
# in the domain's ORACLES table: spectral from key 0, regular from 2^40
_QUANTITY_KEY_STRIDE = 2**40


def _rate_at(rate, t) -> float:
    """The rate function at ladder time t; refuses t unless it is finite and positive there."""
    try:
        value = float(rate(t)) if 0.0 < t < math.inf else math.nan
    except (ArithmeticError, ValueError):
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(
            f"t must be positive and finite, and the rate {rate.label} finite and positive "
            f"there; got t = {t:g}, rate {value:g}"
        )
    return value


def cmd_estimate(cfg: RunConfig) -> str:
    exp = parse_exponent(cfg.exponent)
    dom = parse_domain(cfg.domain)
    spec = TimeChangeSpec(exp, Kind(cfg.time_change))
    offsets = [i * _QUANTITY_KEY_STRIDE for i in range(len(dom.ORACLES))]
    streams = samplers.disjoint_spawns(RandomStream(cfg.seed), offsets, cfg.paths)
    if not cfg.t_ladder:
        raise ValueError("need --t or --t-ladder")
    # the rate is the clock's alone, so no constant is computed; every rung's
    # rate comes first, so that a rung out of range fails before any estimate runs
    rate = small_time_rate(exp, spec.kind)
    rows = []
    for t, rate_value in [(t, _rate_at(rate, t)) for t in cfg.t_ladder]:
        for quantity, stream in zip(dom.ORACLES, streams):
            e = estimate(spec, dom, t, cfg.paths, stream, quantity, workers=cfg.workers)
            rows.append(
                {
                    "t": t,
                    "quantity": quantity,
                    "value": e.value,
                    "stderr": e.stderr,
                    "rate_value": rate_value,
                    "ratio": e.deficit / rate_value,
                    "n_paths": e.n_paths,
                    "seed": cfg.seed,
                }
            )
    return _table(rows, cfg.fmt)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

_UNIT = Interval(0.0, 1.0)


def _suite_stream(cfg: RunConfig, index: int) -> RandomStream:
    return RandomStream(cfg.seed, (index + 1) * 2**48)


def _check(name, target, achieved, tol):
    return CheckResult(name, target, achieved, tol, abs(achieved - target) <= tol)


def _band(cfg, rel):
    # --tolerance, where given, is the relative band of every limit check
    return cfg.tolerance if cfg.tolerance is not None else rel


def _limit_check(cfg, name, spec, t, n, stream, rel, quantity=SPECTRAL, extra_tol_se=4.0):
    """The quantity's heat lost at t on the unit interval over its predicted
    rate, against the predicted constant, within the larger of extra_tol_se
    standard errors and the relative band rel."""
    pred = predict(spec.exponent, _UNIT, spec.kind, quantity)
    est = estimate(spec, _UNIT, t, n, stream, quantity.name, workers=cfg.workers)
    rate = float(pred.rate(t))
    tol = max(extra_tol_se * est.stderr / rate, _band(cfg, rel) * abs(pred.constant))
    return _check(name, pred.constant, est.deficit / rate, tol)


def _sample_mean_check(name, x, target):
    se = float(x.std(ddof=1)) / math.sqrt(x.size)
    return _check(name, target, float(x.mean()), 4.0 * se)


def _suite_highindex(cfg: RunConfig) -> list[CheckResult]:
    n = 200_000 if cfg.quick else 1_000_000
    spec = TimeChangeSpec(Stable(0.75), Kind.SUBORDINATOR)
    return [_limit_check(cfg, "highindex-ratio", spec, 1e-8, n, _suite_stream(cfg, 1), 0.03)]


def _critical_ladder(cfg, exp, n, tag):
    # The theorem gives only the limit of the ratio; at t = 1e-10 the
    # lower-order 1/log(1/t) correction still holds it well above the
    # constant (10.66% for the mixed exponent).  The final check therefore
    # compares the limit extrapolated from the last two rungs by fit_rate.
    spec = TimeChangeSpec(exp, Kind.SUBORDINATOR)
    pred = predict(exp, _UNIT, spec.kind, SPECTRAL)
    stream = _suite_stream(cfg, 2 if isinstance(exp, Stable) else 4)
    samples = []
    for t in (1e-6, 1e-8, 1e-10):
        est = estimate(spec, _UNIT, t, n, stream, workers=cfg.workers)
        samples.append((t, est.deficit, est.stderr))
    rel = _band(cfg, 0.10)
    fit = fit_rate(samples, pred, rel)
    monotone = all(a > b for a, b in zip(fit.ratios, fit.ratios[1:]))
    return [
        CheckResult(f"{tag}-monotone", 1.0, 1.0 if monotone else 0.0, 0.0, monotone),
        CheckResult(f"{tag}-final", pred.constant, float(fit.limit), rel * pred.constant, bool(fit.passed)),
    ]


def _suite_critical(cfg: RunConfig) -> list[CheckResult]:
    n = 150_000 if cfg.quick else 800_000
    return _critical_ladder(cfg, Stable(0.5), n, "critical")


def _suite_mixed_critical(cfg: RunConfig) -> list[CheckResult]:
    # The exact mixed ratio at t = 1e-10 is 1.40893, 0.6% outside the 10%
    # band (which ends at 1.40057), so only the extrapolated limit can pass.
    # The extrapolation r1 + 4 (r1 - r0) multiplies the last rung's error by
    # five, so this suite keeps a tighter standard error than the pure
    # critical ladder for its verdict to be reproducible across seeds.
    n = 400_000 if cfg.quick else 3_200_000
    exp = MixedStable(((0.25, 1.0), (0.5, 1.0)))
    return _critical_ladder(cfg, exp, n, "mixed-critical")


def _suite_lowindex(cfg: RunConfig) -> list[CheckResult]:
    n = 200_000 if cfg.quick else 1_000_000
    spec = TimeChangeSpec(Stable(0.25), Kind.SUBORDINATOR)
    return [_limit_check(cfg, "lowindex-ratio", spec, 1e-6, n, _suite_stream(cfg, 3), 0.02)]


def _suite_inverse(cfg: RunConfig) -> list[CheckResult]:
    n = 100_000 if cfg.quick else 400_000
    # spectral rows from key i 2^20, regular ones from i 2^20 + 2^19
    offsets = [i * 2**20 + q * 2**19 for i in range(3) for q in range(2)]
    keys = samplers.disjoint_spawns(_suite_stream(cfg, 5), offsets, n)
    cases = [(beta, q) for beta in (0.25, 0.5, 0.75) for q in (SPECTRAL, REGULAR)]
    return [
        _limit_check(
            cfg, f"inverse-{q.name}-b{beta:g}", TimeChangeSpec(Stable(beta), Kind.INVERSE), 1e-6, n, key, 0.02, q
        )
        for (beta, q), key in zip(cases, keys)
    ]


def _suite_inverse_universality(cfg: RunConfig) -> list[CheckResult]:
    # the criterion names the grid sampler, so the step is set explicitly:
    # without it a tempered clock this deep takes the duality estimator
    t = 1e-5
    n = 512 if cfg.quick else 2048
    spec = TimeChangeSpec(TemperedStable(0.5, 1.0), Kind.INVERSE, t * 1e-3)
    return [_limit_check(cfg, "universality-ratio", spec, t, n, _suite_stream(cfg, 6), 0.05, extra_tol_se=0.0)]


def _suite_expansion(cfg: RunConfig) -> list[CheckResult]:
    out = []
    worst = 0.0
    for beta in np.linspace(0.05, 0.95, 19):
        got = expansion(beta, [4.0 / math.sqrt(math.pi)])[0][0]
        want = 2.0 / gamma_fn(1.0 + beta / 2.0)
        worst = max(worst, abs(got - want) / want)
    out.append(_check("expansion-identity", 0.0, worst, 1e-12))
    return out


def _suite_moments(cfg: RunConfig) -> list[CheckResult]:
    n = 200_000 if cfg.quick else 1_000_000
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


def _suite_levy(cfg: RunConfig) -> list[CheckResult]:
    n = 100_000 if cfg.quick else 400_000
    report = check_levy_convergence(
        Stable(0.25), "power-exp:0.5", (1e-2, 1e-3, 1e-4), n, _suite_stream(cfg, 9)
    )
    t_f, stat_f, se_f = report.points[-1]
    tol = max(4.0 * se_f, 0.02 * abs(report.target))
    return [CheckResult("levy-final", report.target, stat_f, tol, report.passed)]


def _suite_small_ball(cfg: RunConfig) -> list[CheckResult]:
    n = 100_000 if cfg.quick else 400_000
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


def _suite_oracle(cfg: RunConfig) -> list[CheckResult]:
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
    n = 100_000 if cfg.quick else 400_000
    u_w = 0.02
    walk, _ = run_blocks(_bridge_walk_kernel, u_w, n, _suite_stream(cfg, 11), cfg.workers)
    exact = exact_Q_interval(_UNIT, u_w)
    rel_walk = abs(walk - exact) / exact
    out.append(_check("bridge-walk-vs-oracle", 0.0, rel_walk, 0.005))
    return out


def _suite_determinism(cfg: RunConfig) -> list[CheckResult]:
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
    return _SUITES[_canonical_suite(name)](cfg)


def cmd_verify(cfg: RunConfig) -> tuple[int, str]:
    names = list(_SUITES) if cfg.suite in (None, "all") else [_canonical_suite(cfg.suite)]
    suites_out = []
    all_pass = True
    for name in names:
        start = time.perf_counter()
        checks = _SUITES[name](cfg)
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
        for key, (_, parse, text) in _KEYS.items():
            if key == "quick" and name == "verify":
                p.add_argument("--quick", action="store_true", default=None, help=text)
            elif name == "verify" or key not in ("suite", "quick"):
                p.add_argument(f"--{key}", type=parse, help=text)
        p.add_argument("--config", help="flat key=value file; flags take precedence")
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
