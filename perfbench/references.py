"""Exact references for every row the benchmark checks.

Each reference is a deterministic function of the configuration, computed by
quadrature or by a series with an explicit tail, never by sampling, so a
Monte Carlo row can be scored as a z-value against it.  They are built from
the package's public Laplace exponents only; the tests beside this file check
them against the package's own oracles wherever both converge.

Every reference takes `one_minus_lt(lam)`, the function
lam -> 1 - E[exp(-lam * clock)] of the random clock (subordinator D_t or
inverse E_t), so one series serves every clock whose Laplace transform is
known in closed form.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

from subheat import Stable, phi

_PHI0 = 1.0 / math.sqrt(2.0 * math.pi)  # standard normal density at 0
_HEAD = 20_001  # terms summed one by one before the Euler-Maclaurin tail


# ---------------------------------------------------------------------------
# clocks: lam -> 1 - E[exp(-lam clock)]
# ---------------------------------------------------------------------------


def subordinator_clock(exp, t: float):
    """1 - E[e^(-lam D_t)] = 1 - e^(-t phi(lam)) for any catalog exponent."""
    return lambda lam: -np.expm1(-t * phi(exp, lam))


def deterministic_clock(u: float):
    """A clock frozen at u; turns every reference back into the plain oracle."""
    return lambda lam: -np.expm1(-np.asarray(lam, dtype=float) * u)


def half_stable_inverse_clock(t: float):
    """Inverse 1/2-stable clock: E[e^(-lam E_t)] is the Mittag-Leffler
    function E_{1/2}(-lam sqrt(t)) = erfcx(lam sqrt(t))."""
    rt = math.sqrt(t)
    return lambda lam: 1.0 - special.erfcx(np.asarray(lam, dtype=float) * rt)


def clock_for(exp, kind: str, t: float):
    """Clock transform for a configuration, or None if none is closed-form."""
    if kind == "sub":
        return subordinator_clock(exp, t)
    if isinstance(exp, Stable) and exp.beta == 0.5:
        return half_stable_inverse_clock(t)
    return None


# ---------------------------------------------------------------------------
# series with an Euler-Maclaurin tail
# ---------------------------------------------------------------------------


def _tail_sum(f, k0: float, step: float) -> float:
    """sum_{j>=0} f(k0 + step j) for smooth f = O(k^-2), by Euler-Maclaurin.

    The integral runs in log space; f decays at least like 1/k^2, so 60 e-folds
    past k0 leave a remainder below e^-60 of the tail.
    """
    integral, _ = integrate.quad(
        lambda s: float(f(math.exp(s))) * math.exp(s),
        math.log(k0),
        math.log(k0) + 60.0,
        limit=400,
        epsabs=0.0,
        epsrel=1e-11,
    )
    h = k0 * 1e-4
    df = (float(f(k0 + h)) - float(f(k0 - h))) / (2.0 * h)
    return integral / step + 0.5 * float(f(k0)) - step * df / 12.0


def interval_deficit(L: float, one_minus_lt) -> float:
    """E[L - Q(clock)] on an interval of length L.

    Eigen series sum over odd k of 8L/(pi k)^2 (1 - E[e^(-lam_k clock)]) with
    lam_k = (k pi / L)^2: the first terms one by one, the rest by an
    Euler-Maclaurin tail.  Truncating instead (as subordinate_deficit_series
    does) leaves an error of about 4L/(pi^2 kmax), larger than the whole
    deficit at t = 1e-10 for low-index clocks.
    """

    def f(k):
        k = np.asarray(k, dtype=float)
        return 8.0 * L / (np.pi * k) ** 2 * one_minus_lt((k * np.pi / L) ** 2)

    k = np.arange(1.0, _HEAD, 2.0)
    return float(np.sum(f(k)[::-1])) + _tail_sum(f, float(_HEAD), 2.0)


def _bessel_j0_zero(n):
    """n-th positive zero of J0 by McMahon's expansion; below 1e-13 relative
    error for n > 100, where the tabulated zeros stop."""
    n = np.asarray(n, dtype=float)
    b = (n - 0.25) * np.pi
    return b + 1.0 / (8.0 * b) - 124.0 / (3.0 * (8.0 * b) ** 3) + 120928.0 / (15.0 * (8.0 * b) ** 5)


# tabulated zeros, then McMahon's up to the start of the Euler-Maclaurin
# tail, late enough that its first omitted term (f''' / 720) is below 1e-20
_J0_ZEROS = np.concatenate([special.jn_zeros(0, 100), _bessel_j0_zero(np.arange(101.0, _HEAD))])


def disk_deficit(R: float, one_minus_lt) -> float:
    """E[pi R^2 - Q_disk(clock)] from the J0-Bessel series.

    Q_disk(u) = sum_n 4 pi R^2 / j_n^2 exp(-(j_n / R)^2 u) over the zeros j_n
    of J0, and sum_n 4 / j_n^2 = 1.
    """

    def f_of_zero(j):
        return 4.0 * np.pi * R * R / j**2 * one_minus_lt((j / R) ** 2)

    head = float(np.sum(f_of_zero(_J0_ZEROS)[::-1]))
    return head + _tail_sum(lambda n: f_of_zero(_bessel_j0_zero(n)), float(_HEAD), 1.0)


def interval_regular(L: float, one_minus_lt) -> float:
    """E[H(clock)], the heat pushed out of an interval of length L.

    Plancherel gives H(u) = (2/pi) int_0^inf (1 - cos(xi L)) (1 - e^(-xi^2 u)) / xi^2 dxi,
    so the clock enters only through its Laplace transform at xi^2.  The
    range splits at A = 100 pi / L: below A the whole integrand (bounded at 0);
    above, a log-space quadrature of the smooth part minus a Fourier
    (QAWO) quadrature of the oscillating part up to B, whose remaining tail
    is -f'(B)/L^2 by parts.
    """

    def m_over(xi):
        xi = np.asarray(xi, dtype=float)
        return one_minus_lt(xi * xi) / (xi * xi)

    A = 100.0 * np.pi / L
    B = 20000.0 * np.pi / L
    near, _ = integrate.quad(
        lambda x: 2.0 * math.sin(0.5 * x * L) ** 2 * float(m_over(x)),
        0.0,
        A,
        limit=800,
        points=[np.pi * (2 * j + 1) / L for j in range(0, 50, 5)],
        epsabs=0.0,
        epsrel=1e-10,
    )
    smooth, _ = integrate.quad(
        lambda s: float(one_minus_lt(math.exp(2.0 * s))) * math.exp(-s),
        math.log(A),
        math.log(A) + 60.0,
        limit=400,
        epsabs=0.0,
        epsrel=1e-11,
    )
    osc, _ = integrate.quad(
        lambda x: float(m_over(x)), A, B, weight="cos", wvar=L, limit=2000, epsabs=0.0, epsrel=1e-10
    )
    h = B * 1e-4
    tail = -(float(m_over(B + h)) - float(m_over(B - h))) / (2.0 * h) / (L * L)
    return 2.0 / np.pi * (near + smooth - osc - tail)


# ---------------------------------------------------------------------------
# inverse clocks with no closed-form transform: duality quadrature
# ---------------------------------------------------------------------------


def _neg_dQ(L: float, u: float) -> float:
    """-Q'(u) on the interval: image series for short times, eigen series after.

    Image form: (1/sigma)(4 phi(0) + 8 sum_m (-1)^m phi(m L / sigma)),
    sigma = sqrt(2u); eigen form: sum over odd k of (8/L) e^(-lam_k u).
    """
    if u < L * L / 10.0:
        sig = math.sqrt(2.0 * u)
        m = np.arange(1.0, 12.0)
        return (4.0 * _PHI0 + 8.0 * float(np.sum((-1.0) ** m * np.exp(-0.5 * (m * L / sig) ** 2)) * _PHI0)) / sig
    k = np.arange(1.0, 60.0, 2.0)
    return float(np.sum(8.0 / L * np.exp(-((k * np.pi / L) ** 2) * u)))


def _dH(L: float, u: float) -> float:
    """H'(u) = 2 (phi(0) - phi(L / sigma)) / sigma on the interval."""
    sig = math.sqrt(2.0 * u)
    return 2.0 * _PHI0 * (1.0 - math.exp(-0.5 * (L / sig) ** 2)) / sig


def _half_tempered_cdf(t: float, u: float, theta: float) -> float:
    """P(D_u <= t) for phi(s) = sqrt(s + theta) - sqrt(theta).

    D_u is inverse Gaussian with mean u / (2 sqrt(theta)) and shape u^2 / 2;
    the second term of its CDF is taken in log space to avoid 0 * inf.
    """
    st = math.sqrt(2.0 * t)
    a = (2.0 * math.sqrt(theta) * t - u) / st
    b = -(2.0 * math.sqrt(theta) * t + u) / st
    return float(special.ndtr(a) + math.exp(2.0 * u * math.sqrt(theta) + special.log_ndtr(b)))


def half_tempered_inverse(L: float, theta: float, t: float) -> tuple[float, float]:
    """(spectral deficit, regular content) under the inverse of the 1/2-tempered
    stable clock, from the duality {E_t > u} = {D_u < t}:

        E[L - Q(E_t)] = int_0^inf (-Q'(u)) P(D_u < t) du,
        E[H(E_t)]     = int_0^inf   H'(u)  P(D_u < t) du.

    The substitution u = v^2 removes the u^(-1/2) singularity of both
    derivatives at 0.
    """
    if not (theta > 0.0 and t > 0.0):
        raise ValueError("theta and t must be positive")
    # P(D_u < t) is negligible once the 1/2-stable part alone makes it so:
    # 2 Phibar(u / sqrt(2t)) < 1e-300 beyond u = 37.5 sqrt(2t)
    v_max = math.sqrt(37.5 * math.sqrt(2.0 * t))
    knots = [math.sqrt(c * math.sqrt(2.0 * t)) for c in (0.25, 1.0, 3.0, 10.0)]

    def integral(deriv):
        val, _ = integrate.quad(
            lambda v: deriv(L, v * v) * _half_tempered_cdf(t, v * v, theta) * 2.0 * v if v > 0.0 else 0.0,
            0.0,
            v_max,
            points=[k for k in knots if k < v_max],
            limit=400,
            epsabs=0.0,
            epsrel=1e-11,
        )
        return val

    return integral(_neg_dQ), integral(_dH)
