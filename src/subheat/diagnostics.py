"""Numerical checks of auxiliary limit statements about the time changes.

These do not estimate heat contents; they validate the supporting limits the
heat-content asymptotics lean on: small-time convergence of rescaled
subordinator laws to the Levy measure, small-ball decay exponents, and
inverse-subordinator moment asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import samplers
from .asymptotics import LadderReport, band_verdict, verdict
from .levy_exponents import Stable, leading_index, levy_density, phi
from .samplers import Kind, RandomStream, TimeChangeSpec, run_blocks

_LEVY_IS_CAP = 60.0  # clock coverage for importance sampling; e^-x test factors are dead beyond this


class HypothesisViolationError(ValueError):
    """The requested check is outside the hypotheses of the statement it tests."""


class LadderTooDeepError(RuntimeError):
    """Every sampled path missed the event; the ladder reaches too far down."""


def _read_ladder(t_ladder, least: int = 1) -> list[float]:
    """The ladder's times as floats by decreasing t, at least `least` of them,
    each once: checked before any rung draws."""
    ts = sorted((float(t) for t in t_ladder), reverse=True)
    if len(ts) < least:
        raise ValueError(f"ladder needs at least {least} point(s), got {len(ts)}")
    for a, b in zip(ts, ts[1:]):
        if a == b:
            raise ValueError(f"ladder repeats t = {a:g}")
    return ts


def _test_function(tag: str, beta: float):
    """Built-in test-function family; returns f."""
    if tag == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if tag == "bump":

        def f(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            inside = (x > 1.0) & (x < 2.0)
            xi = x[inside]
            out[inside] = np.exp(-1.0 / ((xi - 1.0) * (2.0 - xi)))
            return out

        return f
    if tag.startswith("power-exp:"):
        gamma = float(tag.split(":", 1)[1])
        if not gamma > beta:
            raise HypothesisViolationError(
                f"power-exp exponent {gamma} must exceed the leading index {beta} "
                "for the Levy-measure integral to be finite"
            )

        def f(x):
            x = np.asarray(x, dtype=float)
            return np.minimum(x, 1.0) ** gamma * np.exp(-x)

        return f
    raise ValueError(f"unknown test-function tag {tag!r}")


def _levy_integral(exp, f) -> float:
    """Quadrature of f against the Levy measure, log-substituted on both ends."""
    from scipy import integrate  # imported here, where it is used, to keep start-up short

    def integrand(w):
        return float(f(math.exp(w))) * levy_density(exp, math.exp(w)) * math.exp(w)

    lo_part, _ = integrate.quad(integrand, -700.0, 0.0, limit=400)
    hi_part, _ = integrate.quad(integrand, 0.0, 50.0, limit=400)
    return lo_part + hi_part


def _levy_kernel(args, stream, lo, size, n):
    exp, f, t, use_is = args
    if use_is:
        d, w = samplers._is_stable_draws(exp.beta, t, _LEVY_IS_CAP, stream.uniforms(size), stream.uniforms(size))
        return f(d) * w / t
    return f(samplers.sample_subordinator(exp, t, stream, size)) / t


def _small_ball_kernel(args, stream, lo, size, n):
    exp, delta, t = args
    return (samplers.sample_subordinator(exp, delta, stream, size) <= t).astype(float)


def _small_ball_stable_kernel(args, stream, lo, size, n):
    # P(S_delta <= t) = E[exp(-lam A(U))] over the Kanter angle A(U), exact in
    # the exponential variate, so no exceedance counts are needed; A(U) >=
    # A(0+), so the values times e^(lam A(0+)) lie in (0, 1] however rare the event
    beta, lam = args
    u = np.maximum(stream.uniforms(size), 2.0**-54)
    return np.exp(-lam * (samplers.kanter_angle(u, beta) - samplers.kanter_angle_min(beta)))


def _inverse_moment_kernel(args, stream, lo, size, n):
    # the plain and the delta = 1 truncated moment, from the same draws
    spec, t, p, scale = args
    e = samplers.sample_inverse(spec, t, stream, size)
    x = e**p * scale
    return np.stack((x, x * (e <= 1.0)))


def check_levy_convergence(exp, f_tag: str, t_ladder, n: int, stream: RandomStream) -> LadderReport:
    """Small-time convergence of E[f(D_t)]/t to the Levy-measure integral of f.

    Stable exponents use the importance-sampled clock draws so the statistic
    has a usable relative error even when the support of f is a rare event for
    D_t; other exponents use plain draws and lean on the 4-stderr branch of
    the pass rule, the last rung within the larger of that and 2%.
    The proposal's clock cap is 60, and a stable rung (b, t) where t^(1/b),
    s = 60/t^(1/b) or s^(b/(1-b)) is more than 1e300 from 1 raises ValueError:
    at b = 0.99, every t <= 0.05.
    """
    beta = leading_index(exp)
    f = _test_function(f_tag, beta)
    target = _levy_integral(exp, f)
    use_is = isinstance(exp, Stable)
    points = []
    for t in _read_ladder(t_ladder):
        mean, se = run_blocks(_levy_kernel, (exp, f, t, use_is), n, stream)
        points.append((t, mean, se))
    _, stat_f, se_f = points[-1]
    return band_verdict(points, target, stat_f, se_f, 0.02)


def check_small_ball(exp, delta: float, t_ladder, n: int, stream: RandomStream) -> LadderReport:
    """Decay exponent of P(D_delta <= t) as the threshold t goes to 0.

    -log P behaves like a power t^(-beta/(1-beta)) up to slowly varying
    factors, so the regression slope of log(-log P) on log(1/t) is checked
    against beta/(1-beta) with a +-0.1 allowance.  Each ladder point carries
    the statistic -log(P hat) with its delta-method error bar; the
    probability itself underflows float64 deep in the ladder (it decays like
    exp(-c t^(-beta/(1-beta)))), so it is never materialized.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    beta = leading_index(exp)
    target = beta / (1.0 - beta)
    points = []
    for t in _read_ladder(t_ladder, 2):
        # the mean is P(D_delta <= t) e^shift
        if isinstance(exp, Stable):
            lam = (t * delta ** (-1.0 / beta)) ** (-beta / (1.0 - beta))
            shift = lam * samplers.kanter_angle_min(beta)
            mean, se = run_blocks(_small_ball_stable_kernel, (beta, lam), n, stream)
        else:
            shift = 0.0
            mean, se = run_blocks(_small_ball_kernel, (exp, delta, t), n, stream)
        if mean == 0.0:
            raise LadderTooDeepError(
                f"no path reached D_delta <= {t:g} out of {n}; raise the ladder or n"
            )
        neg_log_p = shift - math.log(mean)
        if neg_log_p <= 0.0:
            raise ValueError(
                f"P(D_delta <= {t:g}) is estimated at 1; the ladder point is not "
                "in the decay regime"
            )
        points.append((t, neg_log_p, se / mean))
    xs = np.array([math.log(1.0 / t) for t, _, _ in points])
    ys = np.array([math.log(stat) for _, stat, _ in points])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return verdict(points, target, slope, 0.1)


def check_inverse_moments(exp, p: float, t_ladder, n: int, stream: RandomStream) -> LadderReport:
    """Moments of the inverse clock against Gamma(p+1)/Gamma(p beta + 1).

    The statistic E[E_t^p] * phi(1/t)^p is exactly t-independent for stable
    exponents under the exact sampler, so the report reads the first rung
    outside the larger of 4 stderr and 2% of the target, else the last; the
    delta-truncated variant (delta = 1) must agree with the untruncated one
    within 2% at the last rung, or the report fails.
    """
    if not p > 0.0:
        raise ValueError("moment order must be positive")
    beta = leading_index(exp)
    target = math.gamma(p + 1.0) / math.gamma(p * beta + 1.0)
    spec = TimeChangeSpec(exp, Kind.INVERSE)
    points = []
    for t in _read_ladder(t_ladder):
        scale = phi(exp, 1.0 / t) ** p
        (mean, se), (mean_trunc, _) = run_blocks(
            _inverse_moment_kernel, (spec, t, p, scale), n, stream
        )
        points.append((t, mean, se))
        trunc_ratio = mean_trunc / mean if mean > 0.0 else math.inf
    rungs = [band_verdict(points, target, stat, se, 0.02) for _, stat, se in points]
    report = next((r for r in rungs if not r.passed), rungs[-1])
    return replace(report, passed=report.passed and abs(trunc_ratio - 1.0) <= 0.02)
