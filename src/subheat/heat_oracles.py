"""Heat-content oracles for Brownian motion with generator Delta (variance 2t).

Intervals get exact closed forms for the deficit L - Q(u), the quantity every
small-time limit is about, so it never comes from a cancelling subtraction.
Below the switch u = L^2/10 the image (reflection) expansion sums to

    L - Q(u) = sigma (4 phi(0) - 8 r(a) + 8 r(2a) - 8 r(3a) + 8 r(4a)),

with sigma = sqrt(2u), a = L/sigma and r(x) = phi(x) - x Phi(-x) for the
standard normal density phi and distribution Phi; the r(5a) term is below
1e-28 of the total there. Above it the Dirichlet eigenfunction series
L - sum of 8L/(k pi)^2 e^(-(k pi/L)^2 u) over the odd modes k = 1, 3, 5, 7
needs 4 modes, the next being below 1e-36 at the switch. The heat content Q
is the complement. The rates -Q'(u) and H'(u), which the duality estimator of
inverse clocks integrates, come term by term from the same forms.

Each domain class carries its oracles in one table, ORACLES, which maps a
quantity ("spectral" for the deficit |Omega| - Q, "regular" for H) to the
pair (f, f'); the estimators and the low-index constants read f from there,
so a domain supports exactly the quantities its table names.

The disk of radius R loses R^2 D(u/R^2), D being the unit disk's deficit:
below s = 0.01 its short-time expansion 4 sqrt(pi s) - pi s - (sqrt(pi)/3)
s^(3/2) - ... (van den Berg & Le Gall 1994), a polynomial in sqrt(s) with
coefficients from Hankel's expansion of I1/I0; above it pi less 20 J0 modes.
An Euler walk with a Brownian-bridge boundary-crossing correction, which the
estimators no longer use, stays as an independent Monte Carlo cross-check of
the disk oracle (mc_Q_disk).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.special import jn_zeros, ndtr

from .levy_exponents import phi
from .samplers import Estimate, RandomStream, run_blocks

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_EIGEN_K = np.array([1.0, 3.0, 5.0, 7.0])  # odd modes; mode 9 is below 1e-36 at the switch
# The unit disk's deficit D(s) = pi - Q(s) = sum over the zeros j_n of J0 of
# 4 pi/j_n^2 (1 - e^(-j_n^2 s)), and a disk of radius R loses R^2 D(u/R^2).
# Below s = 0.01 D(s) is the sum of _DISK_SERIES[k] x^(k+1), x = sqrt(s):
# Hankel's expansion I1(z)/I0(z) ~ sum of c_k z^-k, c = 1, -1/2, -1/8, -1/8,
# -25/128, ..., in the Laplace transform 2 pi I1(sqrt(l))/(l^(3/2) I0(sqrt(l)))
# of D gives, term by term by l^-p <-> s^(p-1)/Gamma(p), the coefficients
# 2 pi c_k/Gamma((k+3)/2) = 4 sqrt(pi), -pi, -sqrt(pi)/3, -pi/8, ...  The
# expansion misses only terms of order e^(-1/s), and 24 terms leave 8e-19
# relative at the switch.  Above it 20 modes leave 1e-18 relative.
_DISK_SERIES = np.array([
    7.089815403622064, -3.141592653589793, -0.5908179503018387, -0.39269908169872414,
    -0.36926121893864916, -0.42542400517361784, -0.5660246970302436, -0.8426667794785122,
    -1.3764248568995583, -2.4336093872876403, -4.611167371740355, -9.291070229816425,
    -19.783957182413623, -44.29256363500556, -103.81444026339005, -253.8128629394538,
    -645.2690041015888, -1701.2247439717514, -4640.300670415754, -13067.307067689137,
    -37920.65699448218, -113212.90882607807, -347216.5441092548, -1092461.7795369322,
])
# D'(s) below the switch is the sum of _DISK_RATE_SERIES[k] x^(k-1)
_DISK_RATE_SERIES = _DISK_SERIES * (np.arange(_DISK_SERIES.size) + 1.0) / 2.0
_DISK_SWITCH = 0.1  # in x = sqrt(u)/R, i.e. s = 0.01
_DISK_J2 = jn_zeros(0, 20) ** 2
_DISK_Q_WEIGHTS = 4.0 * np.pi / _DISK_J2  # Q(s) = sum of these times e^(-j_n^2 s)
_DISK_RATE_WEIGHTS = np.full(_DISK_J2.size, 4.0 * np.pi)  # and -Q'(s)
# r(x) and Phi(-x) are 0.0 in double precision past x = 38.6, so where a >= 40
# every image term and the a Phi(-a) and phi(a) of H drop out exactly; every
# e^(-(k pi/L)^2 u) is 0.0 once (pi/L)^2 u > 745.2, and so past 760
_IMAGE_CUT = 40.0
_EIGEN_CUT = 760.0
_MODE_CUT = 42.0  # modes with e^(-(j_n^2 - j_1^2) s) below e^-42 are left out
# domain sizes whose squares, inverse squares and squared contents stay far
# inside double range, which the oracles and the second moments need
_SIZE_RANGE = (1e-50, 1e50)


def _r(x):
    """r(x) = phi(x) - x Phi(-x), the Gaussian tail integrated twice; r(0) = phi(0)."""
    return np.exp(-0.5 * x * x) / _SQRT_2PI - x * ndtr(-x)


def _as_times(u):
    """(whether u is a scalar, u as a 1-d float array); refuses negative times."""
    scalar = np.isscalar(u) or np.asarray(u).ndim == 0
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u_arr < 0.0):
        raise ValueError("time must be nonnegative")
    return scalar, u_arr


def _shaped(scalar, out):
    return float(out[0]) if scalar else out


def exact_deficit_interval(dom: Interval, u):
    """Heat lost by time u under killing at the interval ends, L - Q(u).

    Exact for all u >= 0 and free of cancellation: at small u it is
    4 sqrt(u/pi) to full relative precision down to u = 1e-300.
    """
    scalar, u_arr = _as_times(u)
    L = dom.length
    out = np.zeros_like(u_arr)
    lo = (u_arr > 0.0) & (u_arr < L * L / 10.0)
    if np.any(lo):
        sig = np.sqrt(2.0 * u_arr[lo])
        a = L / sig
        images = np.zeros_like(a)
        near = a < _IMAGE_CUT
        if np.any(near):
            a = a[near]
            images[near] = _r(a) - _r(2.0 * a) + _r(3.0 * a) - _r(4.0 * a)
        out[lo] = sig * (4.0 / _SQRT_2PI - 8.0 * images)
    u_flat = _EIGEN_CUT * (L / np.pi) ** 2
    hi = (u_arr >= L * L / 10.0) & (u_arr < u_flat)
    if np.any(hi):
        k = _EIGEN_K[:, None]
        terms = 8.0 * L / (k * np.pi) ** 2 * np.exp(-((k * np.pi / L) ** 2) * u_arr[hi][None, :])
        out[hi] = L - terms.sum(axis=0)
    out[u_arr >= u_flat] = L
    return _shaped(scalar, out)


def exact_deficit_rate_interval(dom: Interval, u):
    """Rate of heat loss -Q'(u), the derivative of exact_deficit_interval.

    Term by term from the same two forms, since d/du of sigma r(m a) is
    phi(m a)/sigma: below the switch (4 phi(0) - 8 phi(a) + 8 phi(2a)
    - 8 phi(3a) + 8 phi(4a))/sigma, above it the sum of (8/L) e^(-(k pi/L)^2 u)
    over k = 1, 3, 5, 7.  It blows up like 1/sqrt(pi u) at 0, where it is inf.
    """
    scalar, u_arr = _as_times(u)
    L = dom.length
    out = np.full_like(u_arr, np.inf)
    lo = (u_arr > 0.0) & (u_arr < L * L / 10.0)
    if np.any(lo):
        sig = np.sqrt(2.0 * u_arr[lo])
        a = L / sig
        with np.errstate(over="ignore"):
            images = sum((-1.0) ** m * np.exp(-0.5 * (m * a) ** 2) for m in (1, 2, 3, 4))
        out[lo] = (4.0 + 8.0 * images) / (_SQRT_2PI * sig)
    hi = u_arr >= L * L / 10.0
    if np.any(hi):
        k = _EIGEN_K[:, None]
        out[hi] = (8.0 / L * np.exp(-((k * np.pi / L) ** 2) * u_arr[hi][None, :])).sum(axis=0)
    return _shaped(scalar, out)


def exact_Q_interval(dom: Interval, u):
    """Heat content under killing at the interval ends, exact for all u >= 0.

    The complement of the deficit, so accurate to rounding of L in absolute
    terms; read the deficit itself wherever L - Q is wanted.
    """
    return dom.length - exact_deficit_interval(dom, u)


def exact_H_interval(dom: Interval, u):
    """Heat mass pushed from the interval into its complement by time u.

    Closed form 2 sigma (a Phibar(a) + phi(0) - phi(a)) with sigma = sqrt(2u)
    and a = L/sigma, from integrating the two one-sided Gaussian tails over
    the interval.  Where a < 1 (u > L^2/2) phi(0) - phi(a) cancels, and it is
    taken as -phi(0) expm1(-a^2/2), so that H tends to L to rounding as
    u >> L^2; where a >= 1 the difference loses nothing, and is kept as one
    so that H keeps its bytes there.  Past u = 2^1023, where 2u overflows,
    H is L to rounding.
    """
    scalar, u_arr = _as_times(u)
    L = dom.length
    flat = u_arr >= 2.0**1023
    out = np.where(flat, L, 0.0)
    pos = (u_arr > 0.0) & ~flat
    if np.any(pos):
        # in place, in the operation order of the closed form; where
        # a >= 40 it is its limit phi(0) 2 sigma
        sig = u_arr[pos]
        sig *= 2.0
        np.sqrt(sig, out=sig)
        a = np.divide(L, sig)
        res = np.full_like(a, 1.0 / _SQRT_2PI)
        keep = a < _IMAGE_CUT
        if np.any(keep):
            a = a[keep]
            val = np.negative(a)
            ndtr(val, out=val)
            val *= a
            near = a < 1.0
            tail_near = val[near]
            val += 1.0 / _SQRT_2PI
            gauss = np.multiply(-0.5, a)
            gauss *= a
            np.exp(gauss, out=gauss)
            gauss /= _SQRT_2PI
            val -= gauss
            if tail_near.size:
                val[near] = tail_near - np.expm1(-0.5 * a[near] ** 2) / _SQRT_2PI
            res[keep] = val
        sig *= 2.0
        res *= sig
        out[pos] = res
    return _shaped(scalar, out)


def exact_H_rate_interval(dom: Interval, u):
    """Rate H'(u) = 2 (phi(0) - phi(a)) / sigma = -2 phi(0) expm1(-a^2/2) / sigma
    of exact_H_interval, with sigma = sqrt(2u) and a = L/sigma; inf at u = 0."""
    scalar, u_arr = _as_times(u)
    out = np.full_like(u_arr, np.inf)
    pos = u_arr > 0.0
    if np.any(pos):
        sig = np.sqrt(2.0 * u_arr[pos])
        a = dom.length / sig
        with np.errstate(over="ignore"):
            out[pos] = -2.0 / _SQRT_2PI * np.expm1(-0.5 * a * a) / sig
    return _shaped(scalar, out)


@dataclass(frozen=True)
class Interval:
    """Bounded open interval (a, b), with exact closed-form oracles.

    ORACLES maps each quantity an estimate can ask for to (f, f'): f(dom, u)
    is the heat lost by clock value u, and f' its rate in u, which the
    duality estimator of inverse clocks integrates.
    """

    a: float
    b: float
    ORACLES: ClassVar[dict] = {
        "spectral": (exact_deficit_interval, exact_deficit_rate_interval),
        "regular": (exact_H_interval, exact_H_rate_interval),
    }

    def __post_init__(self):
        if not (self.a < self.b and math.isfinite(self.b - self.a)):
            raise ValueError(f"interval needs a < b at finite distance, got ({self.a}, {self.b})")
        if not _SIZE_RANGE[0] <= self.length <= _SIZE_RANGE[1]:
            raise ValueError(f"interval length must lie in {list(_SIZE_RANGE)}, got {self.length:g}")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def volume(self) -> float:
        return self.b - self.a

    @property
    def surface(self) -> float:
        return 2.0

    @property
    def saturation_clock(self) -> float:
        """pi (|Omega|/|dOmega|)^2 = pi L^2/4, four times the clock at which
        the flat-boundary deficit 4 sqrt(u/pi) reaches L; importance sampling
        tunes its proposal to reach clock values this large."""
        return np.pi * self.length * self.length / 4.0


def _horner(coef, x):
    """sum of coef[k] x^k, in place"""
    acc = np.full_like(x, coef[-1])
    for c in coef[-2::-1]:
        acc *= x
        acc += c
    return acc


def _disk_modes(x, weights):
    """Sum over the J0 modes of weights[n] e^(-j_n^2 s) at s = x^2 >= 0.01,
    accumulated one mode at a time up to the last one that any s needs."""
    with np.errstate(over="ignore"):
        neg_s = -(x * x)
    n_modes = np.searchsorted(_DISK_J2 - _DISK_J2[0], -_MODE_CUT / neg_s.max())
    out = np.zeros_like(neg_s)
    term = np.empty_like(neg_s)
    for j2, w in zip(_DISK_J2[:n_modes], weights):
        np.multiply(neg_s, j2, out=term)
        np.exp(term, out=term)
        term *= w
        out += term
    return out


def exact_deficit_disk(dom: Disk, u):
    """Heat lost by time u under killing on the circle, pi R^2 - Q_R(u).

    R^2 D(u/R^2) for the unit-disk deficit D: below s = u/R^2 = 0.01 the
    short-time expansion 4 sqrt(pi s) - pi s - (sqrt(pi)/3) s^(3/2) - ...,
    exact to rounding and free of cancellation (4 R sqrt(pi u) to full
    relative precision down to u = 1e-300); above it pi R^2 less the J0 modes.
    """
    scalar, u_arr = _as_times(u)
    R = dom.radius
    x = np.sqrt(u_arr) / R
    out = np.empty_like(u_arr)
    lo = x < _DISK_SWITCH
    if np.any(lo):
        out[lo] = np.sqrt(u_arr[lo]) * R * _horner(_DISK_SERIES, x[lo])
    hi = ~lo
    if np.any(hi):
        out[hi] = R * R * (np.pi - _disk_modes(x[hi], _DISK_Q_WEIGHTS))
    return _shaped(scalar, out)


def exact_deficit_rate_disk(dom: Disk, u):
    """Rate of heat loss -Q_R'(u) = D'(u/R^2), the derivative of
    exact_deficit_disk, from the same two forms: the differentiated expansion
    2 sqrt(pi/s) - pi - ... below the switch, the sum of 4 pi e^(-j_n^2 s)
    above it.  It blows up like 2 R sqrt(pi/u) at 0, where it is inf."""
    scalar, u_arr = _as_times(u)
    x = np.sqrt(u_arr) / dom.radius
    out = np.full_like(u_arr, np.inf)
    lo = (u_arr > 0.0) & (x < _DISK_SWITCH)
    if np.any(lo):
        out[lo] = _horner(_DISK_RATE_SERIES, x[lo]) / x[lo]
    hi = x >= _DISK_SWITCH
    if np.any(hi):
        out[hi] = _disk_modes(x[hi], _DISK_RATE_WEIGHTS)
    return _shaped(scalar, out)


@dataclass(frozen=True)
class Disk:
    """Disk of radius R in the plane, with exact oracles from the J0 modes;
    ORACLES as for Interval, with no regular heat content yet."""

    radius: float
    ORACLES: ClassVar[dict] = {"spectral": (exact_deficit_disk, exact_deficit_rate_disk)}

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"disk radius must be positive and finite, got {self.radius}")
        if not _SIZE_RANGE[0] <= self.radius <= _SIZE_RANGE[1]:
            raise ValueError(f"disk radius must lie in {list(_SIZE_RANGE)}, got {self.radius:g}")

    @property
    def volume(self) -> float:
        return np.pi * self.radius**2

    @property
    def surface(self) -> float:
        return 2.0 * np.pi * self.radius

    @property
    def saturation_clock(self) -> float:
        """pi (|Omega|/|dOmega|)^2 = pi R^2/4, as for the interval."""
        return np.pi * self.radius * self.radius / 4.0


Domain = Interval | Disk


def parse_domain(text: str) -> Domain:
    """Parse `interval:<a>,<b>` or `disk:<R>`."""
    head, sep, rest = text.strip().partition(":")
    if not sep:
        raise ValueError(f"malformed domain spec {text!r}: expected kind:params")
    try:
        if head == "interval":
            parts = rest.split(",")
            if len(parts) != 2:
                raise ValueError("interval expects a,b")
            return Interval(float(parts[0]), float(parts[1]))
        if head == "disk":
            return Disk(float(rest))
    except ValueError as exc:
        raise ValueError(f"malformed domain spec {text!r}: {exc}") from None
    raise ValueError(f"unknown domain kind {head!r}")


def disk_survival_block(
    R: float,
    u,
    stream: RandomStream,
    *,
    strat_index: int,
    strat_total: int,
    n: int,
    n_steps: int = 64,
):
    """Per-path survival probabilities for Brownian motion killed on the circle,
    a Monte Carlo cross-check of exact_deficit_disk that no estimator uses.

    Paths start on stratified radii (area-uniform over the disk, stratified by
    global path index), take n_steps Euler steps of duration u/n_steps, and
    accumulate the Brownian-bridge crossing correction e^(-d1 d2 / h) per step.
    u may be a scalar clock or one clock per path.
    """
    u_arr = np.broadcast_to(np.asarray(u, dtype=float), (n,))
    h = np.maximum(u_arr / n_steps, 1e-300)
    idx = np.arange(strat_index, strat_index + n, dtype=float)
    r = R * np.sqrt((idx + stream.uniforms(n)) / strat_total)
    x = np.zeros((n, 2))
    x[:, 0] = r
    d_prev = R - r
    surv = np.ones(n)
    scale = np.sqrt(2.0 * h)[:, None]
    for _ in range(n_steps):
        x += scale * stream.normals((n, 2))
        dist = R - np.hypot(x[:, 0], x[:, 1])
        p_cross = np.where(dist <= 0.0, 1.0, np.exp(-np.maximum(d_prev, 0.0) * dist / h))
        surv *= 1.0 - p_cross
        d_prev = dist
        if not np.any(surv > 1e-16):
            break
    return surv


def interval_survival_block(
    L: float,
    u,
    stream: RandomStream,
    *,
    strat_index: int,
    strat_total: int,
    n: int,
    n_steps: int = 64,
):
    """Interval counterpart of disk_survival_block (both ends kill).

    Validates the bridge-corrected walk against the exact oracle and feeds the
    variance comparison between path estimators and conditional ones.
    """
    u_arr = np.broadcast_to(np.asarray(u, dtype=float), (n,))
    h = np.maximum(u_arr / n_steps, 1e-300)
    idx = np.arange(strat_index, strat_index + n, dtype=float)
    x = L * (idx + stream.uniforms(n)) / strat_total
    dl_prev = x
    dr_prev = L - x
    surv = np.ones(n)
    scale = np.sqrt(2.0 * h)
    for _ in range(n_steps):
        x = x + scale * stream.normals(n)
        dl, dr = x, L - x
        pl = np.where(dl <= 0.0, 1.0, np.exp(-np.maximum(dl_prev, 0.0) * dl / h))
        pr = np.where(dr <= 0.0, 1.0, np.exp(-np.maximum(dr_prev, 0.0) * dr / h))
        surv *= (1.0 - pl) * (1.0 - pr)
        dl_prev, dr_prev = dl, dr
        if not np.any(surv > 1e-16):
            break
    return surv


def subordinate_deficit_series(dom: Interval, exp, t: float, kmax: int = 6_000_000):
    """Exact series for the spectral deficit L - Qtilde(t) under a subordinator.

    Conditioning on the clock and taking the Laplace transform of the
    eigenfunction expansion gives
        deficit(t) = sum over odd k of (8L / (pi k)^2) (1 - e^(-t phi(lambda_k)))
    with lambda_k = (k pi / L)^2. Returns (value, tail_bound): value sums every
    odd k <= kmax, and tail_bound dominates the remainder,
    sum over odd k > kmax of 8L/(pi k)^2 <= 4L/(pi^2 kmax).
    Valid for every exponent in the catalog at every t, so it serves as the
    ground truth the sampling estimators are checked against.
    """
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    L = dom.length
    out = 0.0
    for lo in range(1, kmax + 1, 2_000_000):
        k = np.arange(lo, min(lo + 2_000_000, kmax + 1), 2, dtype=float)
        lam = (k * np.pi / L) ** 2
        out += float(np.sum(8.0 * L / (np.pi * k) ** 2 * (-np.expm1(-t * phi(exp, lam)))))
    tail = 4.0 * L / (np.pi**2 * kmax)
    return out, tail


def _disk_content_kernel(args, stream, lo, size, n):
    # u is a scalar clock or one clock per path of the block
    dom, u = args
    return dom.volume * disk_survival_block(
        dom.radius, u, stream, strat_index=lo, strat_total=n, n=size
    )


def mc_Q_disk(dom: Disk, u: float, n_paths: int, stream: RandomStream):
    """Monte Carlo heat content of the disk at clock u; returns an Estimate."""
    if not u > 0.0:
        raise ValueError("time must be positive")
    start = time.perf_counter()
    value, stderr = run_blocks(_disk_content_kernel, (dom, u), n_paths, stream)
    return Estimate(value, dom.volume - value, stderr, n_paths, stream.seed, time.perf_counter() - start)
