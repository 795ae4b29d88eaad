"""Closed-form small-time limits: rates, constants, expansions, rate fitting.

The limit of (|Omega| - Qtilde(t)) / rate(t) depends on the time change only
through the regime of its Laplace exponent: leading index above 1/2 gives a
subordinator-moment constant, exactly 1/2 gives a t log(1/t) rate, below 1/2
gives a linear rate whose constant is a Levy-measure integral, and inverse
time changes give a universal Gamma constant at rate [phi(1/t)]^(-1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn, gammainc

from .heat_oracles import Interval
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


def running_max_constant(kind: str, beta: float) -> float:
    """Expected running maximum of Brownian motion over a random horizon.

    kind="stable": horizon S_1, value E[S_1^(1/2)] * 2/sqrt(pi).
    kind="inverse": horizon E_1, value 1/Gamma(beta/2 + 1).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0,1), got {beta}")
    if kind == "stable":
        return stable_moment(beta, 0.5) * 2.0 / math.sqrt(math.pi)
    if kind == "inverse":
        return 1.0 / gamma_fn(beta / 2.0 + 1.0)
    raise ValueError(f"kind must be 'stable' or 'inverse', got {kind!r}")


@dataclass(frozen=True)
class RateFunction:
    """One of the four canonical small-time rates, evaluable on (0,1)."""

    name: str  # "phi-inverse-sqrt" | "t-log" | "t" | "phi-sqrt"
    exp: LaplaceExponent | None = None

    def __call__(self, t):
        if self.name == "phi-inverse-sqrt":
            if np.isscalar(t):
                return phi_inverse(self.exp, 1.0 / t) ** -0.5
            return np.array([phi_inverse(self.exp, 1.0 / ti) ** -0.5 for ti in np.asarray(t)])
        if self.name == "t-log":
            return t * np.log(1.0 / t)
        if self.name == "t":
            return t
        if self.name == "phi-sqrt":
            return phi(self.exp, 1.0 / np.asarray(t, dtype=float)) ** -0.5
        raise ValueError(f"unknown rate {self.name!r}")

    @property
    def label(self) -> str:
        if self.name == "phi-inverse-sqrt":
            if isinstance(self.exp, Stable):
                return f"t^({1.0 / (2.0 * self.exp.beta):g})"
            return "[phi_inv(1/t)]^(-1/2)"
        if self.name == "t-log":
            return "t*log(1/t)"
        if self.name == "t":
            return "t"
        if isinstance(self.exp, Stable):
            return f"t^({self.exp.beta / 2.0:g})"
        return "[phi(1/t)]^(-1/2)"


@dataclass(frozen=True)
class AsymptoticPrediction:
    rate: RateFunction
    constant: float
    theorem_tag: str

    def rate_value(self, t):
        return self.rate(t)


def _critical_leading_weight(exp) -> float:
    """Weight of the exact-1/2 leading term, or raise if the critical limit
    is not covered for this exponent (it needs phi = w sqrt(s) + lower order
    with the remainder itself a Laplace exponent of smaller index)."""
    b, w = exp.components[-1]
    if b == 0.5 and exp.theta == 0.0:
        return w
    raise UnsupportedConfigurationError(
        "critical-regime limit requires leading term exactly sqrt(s); "
        f"{exp!r} is not of that form"
    )


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


def lowindex_constant(exp, dom: Interval, quantity: str = "spectral", epsrel: float = 1e-10) -> float:
    """Levy-measure integral giving the linear-rate constant for leading index < 1/2.

    spectral: integral of (|Omega| - Q(u)) nu(du); regular: integral of H(u) nu(du),
    which is exactly the perimeter of the domain relative to the subordinate
    process. Split as closed-form kappa sqrt(u) part on (0,1) plus a smooth
    residual (exponentially small below L^2/10) plus a log-substituted tail.
    """
    from scipy import integrate  # imported here, where it is used, to keep start-up short

    L = dom.length
    content = dom.ORACLES[quantity][0]
    # the flat-boundary short-time coefficient of f: 2/sqrt(pi) per boundary
    # point for the deficit, half that for H
    kappa = (4.0 if quantity == "spectral" else 2.0) / math.sqrt(math.pi)

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


def small_time_rate(exp, kind) -> RateFunction:
    """The rate that the heat lost divides by as t -> 0.

    It depends on the clock alone: the time change and the regime of its
    exponent. Only the constant depends on the domain and the quantity.
    """
    kind = Kind(kind) if isinstance(kind, str) else kind
    if kind is Kind.INVERSE:
        return RateFunction("phi-sqrt", exp)
    reg = regime(exp)
    if reg is Regime.HIGH_INDEX:
        return RateFunction("phi-inverse-sqrt", exp)
    if reg is Regime.CRITICAL:
        return RateFunction("t-log")
    return RateFunction("t")


def _predict(exp, dom, kind, quantity: str) -> AsymptoticPrediction:
    rate = small_time_rate(exp, kind)
    b = leading_index(exp)
    surface = dom.surface
    half = 0.5 if quantity == "regular" else 1.0
    if rate.name == "phi-sqrt":
        const = half * surface / gamma_fn(b / 2.0 + 1.0)
        tag = "inverse-limit"
    elif rate.name == "phi-inverse-sqrt":
        const = half * stable_moment(b, 0.5) * 2.0 * surface / math.sqrt(math.pi)
        tag = "highindex-limit"
    elif rate.name == "t-log":
        w = _critical_leading_weight(exp)
        const = half * 2.0 * surface / math.pi * w
        tag = "critical-limit"
    else:
        if not isinstance(dom, Interval):
            raise UnsupportedConfigurationError(
                "low-index constant is a quadrature against the exact interval oracle; "
                "disk domains are not supported in this regime"
            )
        const = lowindex_constant(exp, dom, quantity)
        tag = "lowindex-limit"
    return AsymptoticPrediction(rate, const, tag + ("-regular" if quantity == "regular" else ""))


def predict_spectral(exp, dom, kind) -> AsymptoticPrediction:
    """Small-time limit of (|Omega| - Qtilde(t)) / rate(t)."""
    return _predict(exp, dom, kind, "spectral")


def predict_regular(exp, dom, kind) -> AsymptoticPrediction:
    """Small-time limit of H(t) / rate(t)."""
    return _predict(exp, dom, kind, "regular")


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
    ratios = tuple(v / prediction.rate_value(t) for t, v, _ in pts)
    if prediction.rate.name == "t-log":
        xs = [1.0 / math.log(1.0 / t) for t in ts]
    else:
        xs = [math.sqrt(t) for t in ts]
    r1, r0 = ratios[-1], ratios[-2]
    x1, x0 = xs[-1], xs[-2]
    limit = r1 + (r1 - r0) * x1 / (x0 - x1)
    rel_dev = abs(limit - prediction.constant) / abs(prediction.constant)
    return FitReport(ratios, limit, rel_dev, tolerance, rel_dev <= tolerance)
