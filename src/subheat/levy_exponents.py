"""Catalog of subordinator Laplace exponents.

Three closed families: stable, exponentially tempered stable, and sums of
weighted stable components. Each exposes the exponent phi in closed form
together with its inverse, Levy density, tail mass, and a small-time regime
classification driven by the leading index.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma_fn, gammaincc


@dataclass(frozen=True)
class Stable:
    """phi(s) = s**beta with index beta in (0,1)."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"stable index must lie in (0,1), got {self.beta}")


@dataclass(frozen=True)
class TemperedStable:
    """phi(s) = (s+theta)**beta - theta**beta with tempering rate theta > 0."""

    beta: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"tempered index must lie in (0,1), got {self.beta}")
        if not self.theta > 0.0:
            raise ValueError(f"tempering rate must be positive, got {self.theta}")


@dataclass(frozen=True)
class MixedStable:
    """phi(s) = sum_i w_i * s**beta_i over components (beta_i, w_i).

    Components are stored as a tuple of (index, weight) pairs with strictly
    increasing indices; the last component carries the leading index.
    """

    components: tuple[tuple[float, float], ...]

    def __post_init__(self):
        comps = tuple((float(b), float(w)) for b, w in self.components)
        if not comps:
            raise ValueError("mixed exponent needs at least one component")
        for b, w in comps:
            if not 0.0 < b < 1.0:
                raise ValueError(f"mixed index must lie in (0,1), got {b}")
            if not w > 0.0:
                raise ValueError(f"mixed weight must be positive, got {w}")
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
    if isinstance(exp, (Stable, TemperedStable)):
        return exp.beta
    return exp.components[-1][0]


def _components(exp: LaplaceExponent) -> tuple[tuple[float, float], ...]:
    """Stable-component view: (beta, weight) pairs, tempering handled apart."""
    if isinstance(exp, Stable):
        return ((exp.beta, 1.0),)
    if isinstance(exp, TemperedStable):
        return ((exp.beta, 1.0),)
    return exp.components


def phi(exp: LaplaceExponent, s):
    """Laplace exponent at s > 0 (scalar or array)."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0):
        raise ValueError("phi requires s > 0")
    if isinstance(exp, Stable):
        out = s_arr**exp.beta
    elif isinstance(exp, TemperedStable):
        out = (s_arr + exp.theta) ** exp.beta - exp.theta**exp.beta
    else:
        out = sum(w * s_arr**b for b, w in exp.components)
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def phi_prime(exp: LaplaceExponent, s):
    """First derivative of phi, used by the inverse's Newton refinement."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0):
        raise ValueError("phi_prime requires s > 0")
    if isinstance(exp, Stable):
        out = exp.beta * s_arr ** (exp.beta - 1.0)
    elif isinstance(exp, TemperedStable):
        out = exp.beta * (s_arr + exp.theta) ** (exp.beta - 1.0)
    else:
        out = sum(w * b * s_arr ** (b - 1.0) for b, w in exp.components)
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def phi_inverse(exp: LaplaceExponent, y: float, rel_tol: float = 1e-12) -> float:
    """Solve phi(x) = y for x > 0 to relative tolerance rel_tol.

    phi is strictly increasing, so a doubling bracket always exists; the
    bracket is then polished by Newton steps with a bisection safeguard.
    """
    y = float(y)
    if y <= 0.0:
        raise ValueError("phi_inverse requires y > 0")
    if isinstance(exp, Stable):
        x0 = y ** (1.0 / exp.beta)
    elif isinstance(exp, TemperedStable):
        x0 = (y + exp.theta**exp.beta) ** (1.0 / exp.beta) - exp.theta
        x0 = max(x0, 1e-300)
    else:
        k = len(exp.components)
        x0 = max((y / (k * w)) ** (1.0 / b) for b, w in exp.components)
    lo = hi = x0
    for _ in range(2200):
        if phi(exp, hi) >= y:
            break
        hi *= 2.0
    for _ in range(2200):
        if phi(exp, lo) <= y:
            break
        lo /= 2.0
    x = min(max(x0, lo), hi)
    for _ in range(200):
        fx = phi(exp, x)
        if abs(fx - y) <= rel_tol * y:
            return x
        if fx > y:
            hi = x
        else:
            lo = x
        step = x - (fx - y) / phi_prime(exp, x)
        x = step if lo < step < hi else 0.5 * (lo + hi)
    return x


def levy_density(exp: LaplaceExponent, u):
    """Pointwise Levy density nu(u) for u > 0 (scalar or array).

    The density blows up like u^(-1-beta) at the origin; values beyond float
    range saturate at the largest finite float so that integrands built on
    top of this stay NaN-free.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0):
        raise ValueError("levy_density requires u > 0")
    out = np.zeros_like(u_arr)
    with np.errstate(over="ignore"):
        for b, w in _components(exp):
            out = out + w * (b / _gamma_fn(1.0 - b)) * u_arr ** (-1.0 - b)
        out = np.minimum(out, np.finfo(float).max)
        if isinstance(exp, TemperedStable):
            out = out * np.exp(-exp.theta * u_arr)
    return float(out) if np.isscalar(u) or u_arr.ndim == 0 else out


def _upper_gamma_negative(a: float, x: float, max_iter: int = 300) -> float:
    """Upper incomplete Gamma(a, x) for a < 0, x > 0 by Lentz's continued
    fraction; accurate for x of order 1 and larger."""
    tiny = 1e-300
    b0 = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b0
    h = d
    for i in range(1, max_iter):
        an = -i * (i - a)
        b0 += 2.0
        d = an * d + b0
        if abs(d) < tiny:
            d = tiny
        c = b0 + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x + a * math.log(x)) * h


def _tempered_tail_scalar(beta: float, theta: float, delta: float) -> float:
    x = theta * delta
    if x < 3.0:
        # one integration by parts keeps both terms well scaled for small x
        return delta ** (-beta) * math.exp(-x) / _gamma_fn(1.0 - beta) - theta**beta * gammaincc(1.0 - beta, x)
    cb = beta / _gamma_fn(1.0 - beta)
    return cb * theta**beta * _upper_gamma_negative(-beta, x)


def levy_tail(exp: LaplaceExponent, delta):
    """Tail mass nu([delta, infinity)) for delta > 0 (scalar or array)."""
    d_arr = np.asarray(delta, dtype=float)
    if np.any(d_arr <= 0.0):
        raise ValueError("levy_tail requires delta > 0")
    if isinstance(exp, TemperedStable):
        out = np.vectorize(_tempered_tail_scalar)(exp.beta, exp.theta, d_arr)
    else:
        out = np.zeros_like(d_arr)
        for b, w in _components(exp):
            out = out + w * d_arr ** (-b) / _gamma_fn(1.0 - b)
    return float(out) if np.isscalar(delta) or d_arr.ndim == 0 else out


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
