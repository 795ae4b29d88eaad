"""Numerical checks of auxiliary limit statements about the time changes.

These do not estimate heat contents; they validate the supporting limits the
heat-content asymptotics lean on: small-time convergence of rescaled
subordinator laws to the Levy measure, small-ball decay exponents, the heat
kernel upper bound, and inverse-subordinator moment asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import samplers
from .estimators import _is_stable_draws
from .levy_exponents import Stable, leading_index, levy_density, phi
from .samplers import Kind, RandomStream, TimeChangeSpec, run_blocks

_LEVY_IS_CAP = 60.0  # clock coverage for importance sampling; e^-x test factors are dead beyond this


class HypothesisViolationError(ValueError):
    """The requested check is outside the hypotheses of the statement it tests."""


class LadderTooDeepError(RuntimeError):
    """Every sampled path missed the event; the ladder reaches too far down."""


@dataclass(frozen=True)
class LadderReport:
    points: tuple[tuple[float, float, float], ...]  # (t, statistic, stderr)
    fitted_slope: float | None
    fitted_limit: float | None
    target: float
    passed: bool

    def __post_init__(self):
        ts = [p[0] for p in self.points]
        if not all(a > b for a, b in zip(ts, ts[1:])):
            raise ValueError("ladder points must be ordered by decreasing t")


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
        d, w = _is_stable_draws(exp.beta, t, _LEVY_IS_CAP, stream.uniforms(size), stream.uniforms(size))
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


def _bin_kernel(args, stream, lo, size, n):
    # one indicator row per bin of D_t, binned as np.histogram bins: each
    # half-open on the right but the last, which holds its right edge
    exp, t, edges = args
    d = samplers.sample_subordinator(exp, t, stream, size)
    idx = np.searchsorted(edges, d, side="right") - 1
    idx[d == edges[-1]] = edges.size - 2
    return (idx == np.arange(edges.size - 1)[:, None]).astype(float)


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
    the pass rule.
    """
    beta = leading_index(exp)
    f = _test_function(f_tag, beta)
    target = _levy_integral(exp, f)
    ts = sorted((float(t) for t in t_ladder), reverse=True)
    if not ts:
        raise ValueError("empty ladder")
    use_is = isinstance(exp, Stable)
    points = []
    for t in ts:
        mean, se = run_blocks(_levy_kernel, (exp, f, t, use_is), n, stream)
        points.append((t, mean, se))
    t_f, stat_f, se_f = points[-1]
    tol = max(4.0 * se_f, 0.02 * abs(target))
    passed = abs(stat_f - target) <= tol
    return LadderReport(tuple(points), None, stat_f, target, passed)


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
    ts = sorted((float(t) for t in t_ladder), reverse=True)
    if len(ts) < 2:
        raise ValueError("small-ball ladder needs at least 2 threshold points")
    beta = leading_index(exp)
    target = beta / (1.0 - beta)
    points = []
    for t in ts:
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
    passed = abs(slope - target) <= 0.1
    return LadderReport(tuple(points), slope, None, target, passed)


def check_heat_kernel_bound(exp, t: float, x_grid, n: int, stream: RandomStream) -> LadderReport:
    """Boundedness of the clock density against t x^(-1) phi(1/x).

    Histograms D_t and D_{t/2} on x_grid bins and reports the worst ratio of
    the density estimate to the bound envelope; the pass rule is stability
    (within a factor 2) across the two t values, since the statement fixes no
    constant.
    """
    edges = np.asarray(x_grid, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0.0):
        raise ValueError("x_grid must be increasing bin edges with at least 2 entries")
    if not t > 0.0:
        raise ValueError("t must be positive")
    mids = np.sqrt(edges[:-1] * edges[1:])
    widths = np.diff(edges)
    envelope = mids ** -1.0 * phi(exp, 1.0 / mids)
    ratios = []
    for ti in (t, t / 2.0):
        # the share of paths in each bin; one bin's run_blocks gives one (mean, stderr) pair
        share = np.reshape(run_blocks(_bin_kernel, (exp, ti, edges), n, stream), (-1, 2))[:, 0]
        ratios.append(float(np.max(share / widths / (ti * envelope))))
    r_t, r_half = ratios
    finite = math.isfinite(r_t) and math.isfinite(r_half) and r_t > 0.0 and r_half > 0.0
    passed = finite and abs(math.log(r_t / r_half)) <= math.log(2.0)
    points = ((t, r_t, 0.0), (t / 2.0, r_half, 0.0))
    return LadderReport(points, None, r_t, r_half if finite else math.inf, passed)


def check_inverse_moments(exp, p: float, t_ladder, n: int, stream: RandomStream) -> LadderReport:
    """Moments of the inverse clock against Gamma(p+1)/Gamma(p beta + 1).

    The statistic E[E_t^p] * phi(1/t)^p is exactly t-independent for stable
    exponents under the exact sampler; the delta-truncated variant (delta = 1)
    must agree with the untruncated one in the limit.
    """
    if not p > 0.0:
        raise ValueError("moment order must be positive")
    ts = sorted((float(t) for t in t_ladder), reverse=True)
    if not ts:
        raise ValueError("empty ladder")
    beta = leading_index(exp)
    target = math.gamma(p + 1.0) / math.gamma(p * beta + 1.0)
    spec = TimeChangeSpec(exp, Kind.INVERSE)
    points = []
    trunc_ratio = 1.0
    for t in ts:
        scale = phi(exp, 1.0 / t) ** p
        (mean, se), (mean_trunc, _) = run_blocks(
            _inverse_moment_kernel, (spec, t, p, scale), n, stream
        )
        points.append((t, mean, se))
        trunc_ratio = mean_trunc / mean if mean > 0.0 else math.inf
    t_f, stat_f, se_f = points[-1]
    tol = max(4.0 * se_f, 0.02 * abs(target))
    passed = abs(stat_f - target) <= tol and abs(trunc_ratio - 1.0) <= 0.02
    return LadderReport(tuple(points), None, stat_f, target, passed)
