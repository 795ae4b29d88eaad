"""Closed-form small-time limits: rates, constants, expansions, rate fitting.

The heat lost by time t over a rate r(t) tends to a constant.  Each regime
is one SmallTimeLimit record, looked up by (Kind, Regime): inverse clocks
(a universal Gamma(1 + b/2) constant at rate [phi(1/t)]^(-1/2)), and
subordinators of leading index above 1/2 (a moment constant), exactly 1/2
(rate t log(1/t)) and below 1/2 (rate t, a Levy-measure integral constant).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn, gammainc

from .heat_oracles import REGULAR, SPECTRAL, Interval, Quantity
from .levy_exponents import (
    LaplaceExponent,
    Regime,
    Stable,
    leading_index,
    levy_density,
    phi,
    phi_inverse,
    regime,
)
from .samplers import Kind, UnsupportedConfigurationError


def stable_moment(beta: float, gamma: float) -> float:
    """E[S_1^gamma] for the standard beta-stable subordinator, gamma < beta.

    Equals Gamma(1 - gamma/beta) / Gamma(1 - gamma); the pole of the numerator
    at gamma = beta matches the moment becoming infinite there, and negative
    orders are all finite.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0,1), got {beta}")
    if not gamma < beta:
        raise ValueError(f"moment of order {gamma} is infinite for index {beta}")
    return gamma_fn(1.0 - gamma / beta) / gamma_fn(1.0 - gamma)


def inverse_moment(beta: float, p: float) -> float:
    """E[E_1^p] for the inverse beta-stable subordinator: Gamma(p+1)/Gamma(p beta + 1).

    Scaling gives E[E_t^p] = t^(p beta) times this for all t > 0.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0,1), got {beta}")
    if not p > 0.0:
        raise ValueError(f"moment order must be positive, got {p}")
    return gamma_fn(p + 1.0) / gamma_fn(p * beta + 1.0)


def _critical_constant(exp, dom, quantity) -> float:
    """2|dOmega|/pi w for phi = w sqrt(s) + lower order, the remainder itself
    a Laplace exponent of smaller index; other critical exponents are not
    covered and raise."""
    b, w = exp.components[-1]
    if b != 0.5 or exp.theta != 0.0:
        raise UnsupportedConfigurationError(
            "critical-regime limit requires leading term exactly sqrt(s); "
            f"{exp!r} is not of that form"
        )
    return quantity.share * 2.0 * dom.surface / math.pi * w


def _sqrt_weight_integral(exp) -> float:
    """Closed form of the singular piece: integral over (0,1) of sqrt(u) against
    the Levy measure, per component with all indices below 1/2."""
    total = 0.0
    for b, w in exp.components:
        c = w * b / gamma_fn(1.0 - b)
        a = 0.5 - b
        if exp.theta > 0.0:
            total += c * exp.theta**-a * gamma_fn(a) * gammainc(a, exp.theta)
        else:
            total += c / a
    return total


def lowindex_constant(exp, dom: Interval, quantity: Quantity = SPECTRAL, epsrel: float = 1e-10) -> float:
    """Levy-measure integral giving the linear-rate constant for leading index < 1/2.

    spectral: integral of (|Omega| - Q(u)) nu(du); regular: integral of H(u) nu(du),
    which is exactly the perimeter of the domain relative to the subordinate
    process. Split as closed-form kappa sqrt(u) part on (0,1) plus a smooth
    residual (exponentially small below L^2/10) plus a log-substituted tail.
    """
    if not isinstance(dom, Interval):
        raise UnsupportedConfigurationError(
            "low-index constant is a quadrature against the exact interval oracle; "
            "disk domains are not supported in this regime"
        )
    from scipy import integrate  # imported here, where it is used, to keep start-up short

    L = dom.length
    content = dom.ORACLES[quantity.name][0]
    # the flat-boundary short-time coefficient of f: 2/sqrt(pi) per unit of
    # boundary for the deficit, the quantity's share of that for H
    kappa = quantity.share * 2.0 * dom.surface / math.sqrt(math.pi)

    part_singular = kappa * _sqrt_weight_integral(exp)

    def residual(u):
        return (content(dom, u) - kappa * math.sqrt(u)) * levy_density(exp, u)

    pts = sorted({min(max(L * L / 10.0, 1e-10), 0.999), 0.5})
    part_res, _ = integrate.quad(residual, 1e-12, 1.0, limit=400, points=pts, epsrel=epsrel)

    def tail(v):
        u = math.exp(v)
        return content(dom, u) * levy_density(exp, u) * u

    part_tail, _ = integrate.quad(tail, 0.0, 300.0, limit=400, epsrel=epsrel)
    return part_singular + part_res + part_tail


def _phi_inverse_sqrt(exp, t):
    if np.ndim(t) == 0:
        return phi_inverse(exp, 1.0 / t) ** -0.5
    return np.array([phi_inverse(exp, 1.0 / ti) ** -0.5 for ti in np.asarray(t)])


@dataclass(frozen=True)
class SmallTimeLimit:
    """One small-time regime: the rate r(t) = rate(exp, t), printed as
    label(exp), that the heat lost divides by; its limit constant(exp, dom,
    quantity); the theorem's tag, which the quantity's tag_suffix completes;
    and fit_variable(t), in which fit_rate extrapolates the ratios to t = 0."""

    tag: str
    rate: Callable
    label: Callable
    constant: Callable
    fit_variable: Callable = math.sqrt


# the mean running maximum of Brownian motion over E_1 per unit of boundary
INVERSE_LIMIT = SmallTimeLimit(
    "inverse-limit",
    lambda exp, t: phi(exp, 1.0 / np.asarray(t, dtype=float)) ** -0.5,
    lambda exp: f"t^({exp.beta / 2.0:g})" if isinstance(exp, Stable) else "[phi(1/t)]^(-1/2)",
    lambda exp, dom, q: q.share * dom.surface / gamma_fn(leading_index(exp) / 2.0 + 1.0),
)
# the mean running maximum over S_1, E[S_1^(1/2)] 2/sqrt(pi), likewise
HIGHINDEX_LIMIT = SmallTimeLimit(
    "highindex-limit",
    _phi_inverse_sqrt,
    lambda exp: f"t^({1.0 / (2.0 * exp.beta):g})" if isinstance(exp, Stable) else "[phi_inv(1/t)]^(-1/2)",
    lambda exp, dom, q: q.share * stable_moment(leading_index(exp), 0.5) * 2.0 * dom.surface / math.sqrt(math.pi),
)
CRITICAL_LIMIT = SmallTimeLimit(
    "critical-limit",
    lambda exp, t: t * np.log(1.0 / t),
    lambda exp: "t*log(1/t)",
    _critical_constant,
    lambda t: 1.0 / math.log(1.0 / t),
)
LOWINDEX_LIMIT = SmallTimeLimit("lowindex-limit", lambda exp, t: t, lambda exp: "t", lowindex_constant)

# the regime of a clock: an inverse clock's is the same at every index
_LIMITS = {
    **{(Kind.INVERSE, reg): INVERSE_LIMIT for reg in Regime},
    (Kind.SUBORDINATOR, Regime.HIGH_INDEX): HIGHINDEX_LIMIT,
    (Kind.SUBORDINATOR, Regime.CRITICAL): CRITICAL_LIMIT,
    (Kind.SUBORDINATOR, Regime.LOW_INDEX): LOWINDEX_LIMIT,
}


@dataclass(frozen=True)
class RateFunction:
    """A regime's small-time rate on one clock, evaluable on (0,1)."""

    limit: SmallTimeLimit
    exp: LaplaceExponent

    def __call__(self, t):
        return self.limit.rate(self.exp, t)

    @property
    def label(self) -> str:
        return self.limit.label(self.exp)


@dataclass(frozen=True)
class AsymptoticPrediction:
    rate: RateFunction
    constant: float
    theorem_tag: str


def small_time_rate(exp, kind) -> RateFunction:
    """The rate that the heat lost divides by as t -> 0.

    It depends on the clock alone: the time change and the regime of its
    exponent. Only the constant depends on the domain and the quantity.
    """
    return RateFunction(_LIMITS[Kind(kind), regime(exp)], exp)


def predict(exp, dom, kind, quantity: Quantity) -> AsymptoticPrediction:
    """Small-time limit of the quantity's heat lost over the clock's rate."""
    rate = small_time_rate(exp, kind)
    limit = rate.limit
    return AsymptoticPrediction(rate, limit.constant(exp, dom, quantity), limit.tag + quantity.tag_suffix)


def predict_spectral(exp, dom, kind) -> AsymptoticPrediction:
    """Small-time limit of (|Omega| - Qtilde(t)) / rate(t)."""
    return predict(exp, dom, kind, SPECTRAL)


def predict_regular(exp, dom, kind) -> AsymptoticPrediction:
    """Small-time limit of H(t) / rate(t)."""
    return predict(exp, dom, kind, REGULAR)


def expansion(beta: float, coefficients) -> list[tuple[float, float]]:
    """Map Brownian small-time coefficients to inverse-stable time-changed ones.

    Each Brownian term c_n t^(n/2) becomes c_n Gamma(1 + n/2) / Gamma(1 + n beta/2)
    at exponent beta n / 2; returns [(mapped coefficient, exponent), ...].
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0,1), got {beta}")
    coefficients = list(coefficients)
    if not coefficients:
        raise ValueError("need at least one coefficient")
    out = []
    for n, c in enumerate(coefficients, start=1):
        mapped = c * gamma_fn(1.0 + n / 2.0) / gamma_fn(1.0 + n * beta / 2.0)
        out.append((mapped, beta * n / 2.0))
    return out


@dataclass(frozen=True)
class FitReport:
    ratios: tuple[float, ...]
    limit: float
    rel_deviation: float
    tolerance: float
    passed: bool


def fit_rate(samples, prediction: AsymptoticPrediction, tolerance: float = 0.05) -> FitReport:
    """Fit ladder values against a predicted rate and constant.

    samples: iterable of (t, value, stderr) with strictly decreasing t, where
    value is the quantity expected to behave like constant * rate(t). Ratios
    are Richardson-extrapolated assuming a first-order correction in
    1/log(1/t) for the t log(1/t) rate and in sqrt(t) otherwise.
    """
    pts = [(float(t), float(v), float(se)) for t, v, se in samples]
    if len(pts) < 3:
        raise ValueError("rate ladder too short: need at least 3 points")
    ts = [p[0] for p in pts]
    if not all(a > b for a, b in zip(ts, ts[1:])):
        raise ValueError("rate ladder must have strictly decreasing t")
    ratios = tuple(v / prediction.rate(t) for t, v, _ in pts)
    r0, r1 = ratios[-2:]
    x0, x1 = (prediction.rate.limit.fit_variable(t) for t in ts[-2:])
    limit = r1 + (r1 - r0) * x1 / (x0 - x1)
    rel_dev = abs(limit - prediction.constant) / abs(prediction.constant)
    return FitReport(ratios, limit, rel_dev, tolerance, rel_dev <= tolerance)
