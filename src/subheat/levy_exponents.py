"""Catalog of subordinator Laplace exponents.

Three closed families: stable, exponentially tempered stable, and sums of
weighted stable components. Every exponent is read through one view: its
stable components, the (index, weight) pairs in `components`, and the
tempering rate `theta` (0 unless tempered), so that

    phi(s) = sum_i w_i * ((s + theta)**b_i - theta**b_i).

phi, its derivative and inverse, the Levy density and the small-time
regime classification driven by the leading index are each one formula over
that view.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.special import gamma as _gamma_fn


@dataclass(frozen=True)
class Stable:
    """phi(s) = s**beta with index beta in (0,1)."""

    beta: float
    theta: ClassVar[float] = 0.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"stable index must lie in (0,1), got {self.beta}")

    @property
    def components(self) -> tuple[tuple[float, float], ...]:
        return ((self.beta, 1.0),)


@dataclass(frozen=True)
class TemperedStable:
    """phi(s) = (s+theta)**beta - theta**beta with tempering rate theta > 0."""

    beta: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"tempered index must lie in (0,1), got {self.beta}")
        if not (self.theta > 0.0 and math.isfinite(self.theta)):
            raise ValueError(f"tempering rate must be positive and finite, got {self.theta}")

    @property
    def components(self) -> tuple[tuple[float, float], ...]:
        return ((self.beta, 1.0),)


@dataclass(frozen=True)
class MixedStable:
    """phi(s) = sum_i w_i * s**beta_i over components (beta_i, w_i).

    Components are stored as a tuple of (index, weight) pairs with strictly
    increasing indices; the last component carries the leading index.
    """

    components: tuple[tuple[float, float], ...]
    theta: ClassVar[float] = 0.0

    def __post_init__(self):
        comps = tuple((float(b), float(w)) for b, w in self.components)
        if not comps:
            raise ValueError("mixed exponent needs at least one component")
        for b, w in comps:
            if not 0.0 < b < 1.0:
                raise ValueError(f"mixed index must lie in (0,1), got {b}")
            if not (w > 0.0 and math.isfinite(w)):
                raise ValueError(f"mixed weight must be positive and finite, got {w}")
        betas = [b for b, _ in comps]
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("mixed indices must be strictly increasing")
        object.__setattr__(self, "components", comps)


LaplaceExponent = Stable | TemperedStable | MixedStable


class Regime(enum.Enum):
    """Small-time regime of the leading index."""

    HIGH_INDEX = "HighIndex"
    CRITICAL = "Critical"
    LOW_INDEX = "LowIndex"


def leading_index(exp: LaplaceExponent) -> float:
    """Index governing the regular variation of phi at infinity."""
    return exp.components[-1][0]


def _positive(x, message: str):
    x_arr = np.asarray(x, dtype=float)
    if (x_arr <= 0.0).any():
        raise ValueError(message)
    return x_arr


def _shaped_like(x, out):
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def phi(exp: LaplaceExponent, s):
    """Laplace exponent at s > 0 (scalar or array).

    A tempered term is w theta^b expm1(b log1p(s/theta)), which equals
    w ((s + theta)^b - theta^b) without its cancellation at s << theta.
    Where s/theta overflows, (1 + theta/s)^b is 1 to rounding and the term
    is w (s^b - theta^b), which cannot overflow.
    """
    th = exp.theta
    x = _positive(s, "phi requires s > 0")
    if th > 0.0:
        with np.errstate(over="ignore"):
            ratio = x / th
        out = sum(w * th**b * np.expm1(b * np.log1p(ratio)) for b, w in exp.components)
        if th < 1.0 and np.isinf(ratio).any():  # s/theta overflows only for theta < 1
            out = np.where(np.isinf(ratio), sum(w * (x**b - th**b) for b, w in exp.components), out)
    else:
        out = sum(w * x**b for b, w in exp.components)
    return _shaped_like(s, out)


def phi_prime(exp: LaplaceExponent, s):
    """First derivative of phi; at s -> 0 it is the clock's mean rate, which
    the grid first-passage walk uses to refuse hopeless step sizes."""
    x = _positive(s, "phi_prime requires s > 0") + exp.theta
    return _shaped_like(s, sum(w * b * x ** (b - 1.0) for b, w in exp.components))


def phi_inverse(exp: LaplaceExponent, y: float) -> float:
    """Solve phi(x) = y for x > 0.

    One component has a closed form: (y/w)**(1/b), or without cancellation
    theta * expm1(log1p(y / (w theta**b)) / b) when tempered. A sum of k
    components is solved by Brent's method in log x, bracketed by the points
    where every term is at most y/k and where some term reaches y; the solve
    raises rather than return an unconverged root.
    """
    y = float(y)
    if y <= 0.0:
        raise ValueError("phi_inverse requires y > 0")
    comps, th = exp.components, exp.theta
    if len(comps) == 1:
        (b, w), = comps
        if th > 0.0:
            return th * math.expm1(math.log1p(y / (w * th**b)) / b)
        return (y / w) ** (1.0 / b)
    k, log_y = len(comps), math.log(y)
    terms = [(b, math.log(w)) for b, w in comps]

    def excess(v):  # log(phi(e^v) / y), summed without overflow
        logs = [lw + b * v for b, lw in terms]
        top = max(logs)
        return top + math.log(sum(math.exp(a - top) for a in logs)) - log_y

    lo = min((log_y - math.log(k) - lw) / b for b, lw in terms)
    hi = max((log_y - lw) / b for b, lw in terms)
    from scipy.optimize import brentq  # imported here, its only use, to keep start-up short

    return math.exp(brentq(excess, lo, hi, xtol=1e-15))


def levy_density(exp: LaplaceExponent, u):
    """Pointwise Levy density nu(u) for u > 0 (scalar or array).

    The density blows up like u^(-1-beta) at the origin; values beyond float
    range saturate at the largest finite float so that integrands built on
    top of this stay NaN-free.
    """
    u_arr = _positive(u, "levy_density requires u > 0")
    with np.errstate(over="ignore"):
        out = sum(w * (b / _gamma_fn(1.0 - b)) * u_arr ** (-1.0 - b) for b, w in exp.components)
        out = np.minimum(out, np.finfo(float).max)
    if exp.theta > 0.0:
        out = out * np.exp(-exp.theta * u_arr)
    return _shaped_like(u, out)


def regime(exp: LaplaceExponent) -> Regime:
    """Classify by the leading index with an exact comparison to one half."""
    b = leading_index(exp)
    if b > 0.5:
        return Regime.HIGH_INDEX
    if b == 0.5:
        return Regime.CRITICAL
    return Regime.LOW_INDEX


def parse_exponent(text: str) -> LaplaceExponent:
    """Parse the exponent grammar used by the CLI and config files.

    `stable:<beta>`, `tempered:<beta>,<theta>`, or
    `mixed:<beta1>*<w1>+<beta2>*<w2>+...` (weights optional, default 1).
    """
    head, sep, rest = text.strip().partition(":")
    if not sep:
        raise ValueError(f"malformed exponent spec {text!r}: expected family:params")
    try:
        if head == "stable":
            return Stable(float(rest))
        if head == "tempered":
            parts = rest.split(",")
            if len(parts) != 2:
                raise ValueError("tempered expects beta,theta")
            return TemperedStable(float(parts[0]), float(parts[1]))
        if head == "mixed":
            comps = []
            for term in rest.split("+"):
                b, star, w = term.partition("*")
                comps.append((float(b), float(w) if star else 1.0))
            return MixedStable(tuple(comps))
    except ValueError as exc:
        raise ValueError(f"malformed exponent spec {text!r}: {exc}") from None
    raise ValueError(f"unknown exponent family {head!r}")
