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
triple (f, f', f^): f(dom, u) is the heat lost by clock value u, f' its rate
in u, and f^(dom, p, scale) its Laplace transform in clock time.  The
estimators and the low-index constants read f from there, so a domain
supports exactly the quantities its table names.  All else about a
quantity is its Quantity record, SPECTRAL or REGULAR, keyed the same way.
inverse_reference inverts f^ into the exact E f(E_t) of an untempered
inverse clock, the Laplace-inversion counterpart of the subordinate series.

The disk of radius R loses R^2 D(u/R^2), D being the unit disk's deficit:
below s = 0.01 its short-time expansion 4 sqrt(pi s) - pi s - (sqrt(pi)/3)
s^(3/2) - ... (van den Berg & Le Gall 1994), a polynomial in sqrt(s) with
coefficients from Hankel's expansion of I1/I0; above it pi less 20 J0 modes.
One Euler walk with a Brownian-bridge boundary-crossing correction,
_bridge_survival, serves both domains, each giving only its start points and
boundary distances; no estimator uses it, and it stays as an independent
Monte Carlo cross-check of the oracles (mc_Q_disk, bridge-walk-vs-oracle).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.special import gamma, ive, jn_zeros, ndtr

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
# Hankel's c_k themselves, for I1(z)/I0(z) at large complex z
_HANKEL = _DISK_SERIES * gamma((np.arange(_DISK_SERIES.size) + 3.0) / 2.0) / (2.0 * np.pi)
# the ratio of scipy's ive is good to 1e-15 below |z| = 1e4 and NaN once |z|
# passes about 1e9; past 1e4 the Hankel terms are exact to rounding, short
# of the ratio only by terms of order e^(-2z)
_HANKEL_CUT = 1e4
_DISK_J2 = jn_zeros(0, 20) ** 2
_DISK_Q_WEIGHTS = 4.0 * np.pi / _DISK_J2  # Q(s) = sum of these times e^(-j_n^2 s)
_DISK_RATE_WEIGHTS = np.full(_DISK_J2.size, 4.0 * np.pi)  # and -Q'(s)
# where a >= 9, 4 phi(0) - 8 (r(a) - r(2a) + r(3a) - r(4a)) rounds to 4 phi(0)
# and a Phibar(a) + phi(0) - phi(a) to phi(0) in double precision (checked on
# 2,000,001 points of a in [9, 40]; past 38.6 r(a) and Phibar(a) are 0.0), so
# the image and Gaussian-tail terms are evaluated only below the cut
_IMAGE_CUT = 9.0
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
    if (u_arr < 0.0).any():
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
    # sigma 4 phi(0), the image form wherever a = L/sigma is past the cut
    with np.errstate(over="ignore"):
        sig = np.multiply(2.0, u_arr)
    np.sqrt(sig, out=sig)
    out = np.zeros_like(u_arr)
    np.multiply(sig, 4.0 / _SQRT_2PI, out=out, where=u_arr > 0.0)
    mid = (u_arr >= 0.5 * (L / _IMAGE_CUT) ** 2) & (u_arr < L * L / 10.0)
    if np.any(mid):
        a = L / sig[mid]
        out[mid] = sig[mid] * (4.0 / _SQRT_2PI - 8.0 * (_r(a) - _r(2.0 * a) + _r(3.0 * a) - _r(4.0 * a)))
    hi = u_arr >= L * L / 10.0
    if np.any(hi):
        # mode by mode on every value, summed in order, so that no gather or
        # scatter is made; an exponent below -700, where exp is slow, is
        # floored there, which leaves a mode far below the rounding of L less
        # the sum: past u = 72 (L/pi)^2 the deficit is L to the bit
        coef, rate = 8.0 * L / (_EIGEN_K * np.pi) ** 2, -((_EIGEN_K * np.pi / L) ** 2)
        total, term = np.zeros_like(u_arr), np.empty_like(u_arr)
        for c, r in zip(coef, rate):
            with np.errstate(over="ignore"):
                np.multiply(r, u_arr, out=term)
            np.maximum(term, -700.0, out=term)
            np.exp(term, out=term)
            term *= c
            total += term
        np.subtract(L, total, out=total)
        np.copyto(out, total, where=hi)
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
    if lo.any():
        sig = np.sqrt(2.0 * u_arr[lo])
        a = L / sig
        with np.errstate(over="ignore"):
            g = np.exp(-0.5 * a * a)  # phi(m a)/phi(0) = g^(m^2), formed by squaring
        g4 = np.square(np.square(g))
        g8 = np.square(g4)
        images = g4 - g - g8 * g + np.square(g8)
        out[lo] = (4.0 + 8.0 * images) / (_SQRT_2PI * sig)
    hi = u_arr >= L * L / 10.0
    if hi.any():
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
    the interval.  phi(0) - phi(a) is taken as -phi(0) expm1(-a^2/2), which
    does not cancel where a < 1 (u > L^2/2), so that H tends to L to
    rounding as u >> L^2.  Past u = 2^1023, where 2u overflows, H is L to
    rounding.
    """
    scalar, u_arr = _as_times(u)
    L = dom.length
    with np.errstate(over="ignore", divide="ignore"):
        a = np.multiply(u_arr, 2.0)
        np.sqrt(a, out=a)
        np.divide(L, a, out=a)  # inf at u = 0, where H = 0
    # past the cut the bracket rounds to phi(0) to the bit, as it does at
    # the cut, so it is taken on every value with a capped there: no gather,
    # and no subnormal Gaussian tail, whose arithmetic is slow
    res = 1.0 / _SQRT_2PI
    if (a < _IMAGE_CUT).any():
        res = _h_bracket(np.minimum(a, _IMAGE_CUT, out=a))
    with np.errstate(over="ignore"):
        two_sig = np.multiply(u_arr, 2.0, out=a)
    np.sqrt(two_sig, out=two_sig)
    two_sig *= 2.0
    out = np.zeros_like(u_arr)
    with np.errstate(invalid="ignore"):
        np.multiply(res, two_sig, out=out, where=u_arr > 0.0)  # 0 inf where 2u overflows, set to L
    flat = u_arr >= 2.0**1023
    if np.any(flat):
        out[flat] = L
    return _shaped(scalar, out)


def _h_bracket(a):
    """a Phibar(a) + phi(0) - phi(a) of exact_H_interval, with
    -phi(0) expm1(-a^2/2) for phi(0) - phi(a).  a is overwritten."""
    res = np.negative(a)
    ndtr(res, out=res)
    res *= a
    np.square(a, out=a)
    a *= -0.5
    np.expm1(a, out=a)
    a /= _SQRT_2PI
    res -= a
    return res


def exact_H_rate_interval(dom: Interval, u):
    """Rate H'(u) = 2 (phi(0) - phi(a)) / sigma = -2 phi(0) expm1(-a^2/2) / sigma
    of exact_H_interval, with sigma = sqrt(2u) and a = L/sigma; inf at u = 0."""
    scalar, u_arr = _as_times(u)
    out = np.full_like(u_arr, np.inf)
    pos = u_arr > 0.0
    if pos.any():
        sig = np.sqrt(2.0 * u_arr[pos])
        a = dom.length / sig
        with np.errstate(over="ignore"):
            out[pos] = -2.0 / _SQRT_2PI * np.expm1(-0.5 * a * a) / sig
    return _shaped(scalar, out)


def _scaled_transform(size, p, scale):
    """(sqrt(scale)/p^(3/2), x = size sqrt(p/scale)): the two factors of a
    transform at scale, formed so that at p of order one neither overflows
    however small scale is.  Re x > 0 for p off the negative real axis."""
    root, rp = math.sqrt(scale), np.sqrt(p)
    return root / (p * rp), (size / root) * rp


def laplace_deficit_interval(dom: Interval, p, scale=1.0):
    """Laplace transform at complex p of the heat lost by clock time scale u,
    the integral of e^(-p u) (L - Q(scale u)) du.

    At scale 1 it is 2 tanh(L sqrt(p)/2)/p^(3/2), from solving
    p v - v'' = 1 with v = 0 at the ends; any scale is f^(p/scale)/scale by
    substitution.  tanh(x/2) is taken as -expm1(-x)/(1 + e^-x), exact as
    Re x grows.
    """
    front, x = _scaled_transform(dom.length, p, scale)
    np.negative(x, out=x)
    return -2.0 * front * np.expm1(x) / (1.0 + np.exp(x))


def laplace_H_interval(dom: Interval, p, scale=1.0):
    """Laplace transform of H(scale u), as laplace_deficit_interval; at
    scale 1 (1 - e^(-L sqrt(p)))/p^(3/2)."""
    front, x = _scaled_transform(dom.length, p, scale)
    return -front * np.expm1(np.negative(x, out=x))


@dataclass(frozen=True)
class Quantity:
    """A heat content: name keys ORACLES; the heat lost is share 2|dOmega|
    sqrt(u/pi) as u -> 0; complement: the content is |Omega| less it;
    tag_suffix ends its theorem tags."""

    name: str
    share: float
    complement: bool
    tag_suffix: str


SPECTRAL = Quantity("spectral", 1.0, True, "")
REGULAR = Quantity("regular", 0.5, False, "-regular")
QUANTITIES = {q.name: q for q in (SPECTRAL, REGULAR)}


@dataclass(frozen=True)
class Interval:
    """Bounded open interval (a, b), with exact closed-form oracles."""

    a: float
    b: float
    ORACLES: ClassVar[dict] = {
        "spectral": (exact_deficit_interval, exact_deficit_rate_interval, laplace_deficit_interval),
        "regular": (exact_H_interval, exact_H_rate_interval, laplace_H_interval),
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
    if lo.any():
        out[lo] = _horner(_DISK_RATE_SERIES, x[lo]) / x[lo]
    hi = x >= _DISK_SWITCH
    if hi.any():
        out[hi] = _disk_modes(x[hi], _DISK_RATE_WEIGHTS)
    return _shaped(scalar, out)


def _bessel_ratio(z):
    """I1(z)/I0(z) at complex z with Re z > 0: the ratio of scipy's ive
    below |z| = 1e4, Hankel's expansion in 1/z past it."""
    out = np.empty_like(z)
    near = np.abs(z) < _HANKEL_CUT
    out[near] = ive(1, z[near]) / ive(0, z[near])
    out[~near] = _horner(_HANKEL, 1.0 / z[~near])
    return out


def laplace_deficit_disk(dom: Disk, p, scale=1.0):
    """Laplace transform of the disk's heat lost by clock time scale u, as
    laplace_deficit_interval; at scale 1 2 pi R I1(R sqrt(p))/(I0(R sqrt(p)) p^(3/2))."""
    front, x = _scaled_transform(dom.radius, p, scale)
    return 2.0 * np.pi * dom.radius * front * _bessel_ratio(x)


@dataclass(frozen=True)
class Disk:
    """Disk of radius R in the plane, with exact oracles from the J0 modes;
    ORACLES as for Interval, with no regular heat content yet."""

    radius: float
    ORACLES: ClassVar[dict] = {"spectral": (exact_deficit_disk, exact_deficit_rate_disk, laplace_deficit_disk)}

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


def _bridge_survival(x, distances, u, stream: RandomStream, n_steps: int):
    """Per-path survival probabilities of Brownian motion started at the rows
    of x and killed on a boundary; distances(x) gives one array of signed
    distances per piece of the boundary, positive inside.  Each of n_steps
    steps of h = u/n_steps (u a scalar clock or one per path) multiplies the
    survival by the product over the pieces of 1 - p: p = e^(-d1 d2 / h), the
    bridge crossing probability, or 1 where the step ends outside."""
    n = x.shape[0]
    h = np.maximum(np.broadcast_to(np.asarray(u, dtype=float), (n,)) / n_steps, 1e-300)
    scale = np.sqrt(2.0 * h)[:, None]
    d_prev = distances(x)
    surv = np.ones(n)
    for _ in range(n_steps):
        x = x + scale * stream.normals(x.shape)
        d_next = distances(x)
        step = None  # the product of the pieces' 1 - p, which surv takes once
        for before, after in zip(d_prev, d_next):
            q = 1.0 - np.where(after <= 0.0, 1.0, np.exp(-np.maximum(before, 0.0) * after / h))
            step = q if step is None else step * q
        surv *= step
        d_prev = d_next
        if not np.any(surv > 1e-16):
            break
    return surv


def disk_survival_block(
    R: float, u, stream: RandomStream, *, strat_index: int, strat_total: int, n: int, n_steps: int = 64
):
    """Per-path survival probabilities for Brownian motion killed on the circle,
    a Monte Carlo cross-check of exact_deficit_disk that no estimator uses.

    Paths start on stratified radii (area-uniform over the disk, stratified by
    global path index) and walk by _bridge_survival.
    """
    idx = np.arange(strat_index, strat_index + n, dtype=float)
    x = np.zeros((n, 2))
    x[:, 0] = R * np.sqrt((idx + stream.uniforms(n)) / strat_total)
    return _bridge_survival(x, lambda x: (R - np.hypot(x[:, 0], x[:, 1]),), u, stream, n_steps)


def interval_survival_block(
    L: float, u, stream: RandomStream, *, strat_index: int, strat_total: int, n: int, n_steps: int = 64
):
    """Interval counterpart of disk_survival_block, killed at both ends, which
    the oracle-integrity suite's bridge-walk-vs-oracle check runs against the
    exact oracle.  Paths start at stratified points of (0, L)."""
    idx = np.arange(strat_index, strat_index + n, dtype=float)
    x = (L * (idx + stream.uniforms(n)) / strat_total).reshape(n, 1)
    return _bridge_survival(x, lambda x: (x[:, 0], L - x[:, 0]), u, stream, n_steps)


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


def _talbot_contour(m):
    """log nodes log(delta_k) and weights of the fixed Talbot contour with m
    nodes (Abate & Valko 2004): g(t) is the sum over k of
    Re(weight_k delta_k ghat(delta_k/t))/t, so a transform ghat(s) = F(s)/s
    inverts as the sum of Re(weight_k F(delta_k/t)).  Formed in cmath, so
    that importing the module runs no numpy complex or tan loop, which costs
    a process that never inverts about 0.3 MB of resident memory."""
    r = 2.0 * m / 5.0
    log_nodes, weights = [math.log(r)], [0.4 * 0.5 * math.exp(r) / r]
    for k in range(1, m):
        theta = k * math.pi / m
        cot = math.cos(theta) / math.sin(theta)
        delta = r * theta * complex(cot, 1.0)
        sigma = theta + (theta * cot - 1.0) * cot
        log_nodes.append(cmath.log(delta))
        weights.append(0.4 * cmath.exp(delta) * complex(1.0, sigma) / delta)
    return np.array(log_nodes, dtype=complex), np.array(weights, dtype=complex)


# 24 nodes meet mpmath's invertlaplace to 8e-13 relative on the interval and
# the disk at indexes 1/4 to 3/4, t = 1e-8 to 1; more nodes gain nothing in
# double precision, since the weights grow like e^(2m/5)
_TALBOT_LOG_NODES, _TALBOT_WEIGHTS = _talbot_contour(24)


def inverse_reference(exp, dom: Domain, t: float, quantity: str = "spectral") -> float:
    """Exact E f(E_t) for the quantity's heat lost f under the inverse of the
    untempered clock exp, by Laplace inversion.

    For f(0) = 0 the t-Laplace transform of E f(E_t) is (phi(s)/s) f^(phi(s)),
    f^ being the transform in clock time (dom.ORACLES' third entry), inverted
    on the fixed Talbot contour in one complex pass over its nodes.  The
    inversion runs at the clock's own scale c = 1/phi(1/t), by Brownian
    scaling: node delta/t maps to p = c phi(delta/t), formed in logs and of
    order one at any t, and f^ is taken at scale c, so nothing overflows
    down to t = 1e-300.
    """
    if exp.theta > 0.0:
        raise ValueError("inverse_reference inverts untempered clocks only")
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t}")
    if quantity not in dom.ORACLES:
        raise ValueError(f"{type(dom).__name__} has no {quantity} heat-content oracle")
    # log of each component's w t^-b, and log phi(1/t) as their log-sum-exp
    log_t = math.log(t)
    terms = [(b, math.log(w) - b * log_t) for b, w in exp.components]
    top = max(term for _, term in terms)
    log_phi = top + math.log(sum(math.exp(term - top) for _, term in terms))
    p = sum(np.exp(b * _TALBOT_LOG_NODES + (term - log_phi)) for b, term in terms)
    p *= dom.ORACLES[quantity][2](dom, p, math.exp(-log_phi))
    return float(np.dot(_TALBOT_WEIGHTS, p).real)


def _disk_content_kernel(args, stream, lo, size, n):
    # u is a scalar clock or one clock per path of the block
    dom, u = args
    return dom.volume * disk_survival_block(dom.radius, u, stream, strat_index=lo, strat_total=n, n=size)


def mc_Q_disk(dom: Disk, u: float, n_paths: int, stream: RandomStream):
    """Monte Carlo heat content of the disk at clock u; returns an Estimate."""
    if not u > 0.0:
        raise ValueError("time must be positive")
    value, stderr = run_blocks(_disk_content_kernel, (dom, u), n_paths, stream)
    return Estimate(value, dom.volume - value, stderr, n_paths)
