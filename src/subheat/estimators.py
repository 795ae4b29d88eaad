"""Monte Carlo estimators of spectral and regular heat contents.

All one-dimensional estimation is Rao-Blackwellized: a path of the time change
is drawn, then the exact interval heat lost at that clock value replaces the
Brownian indicator. Deep-time subordinator runs (leading index <= 1/2)
additionally use importance sampling on the Kanter representation while the
deficit |Omega| - Q is a rare event of the clock, because plain draws almost
never land where it is nonzero once t is of order 1e-8.

Each estimator is a block kernel, a few lines that turn one block's clock
draws into the heat lost per path, run by the block engine samplers.run_blocks:
one counter-based stream per block of BLOCK paths, block moments combined by a
pairwise tree in block order, so estimates are bit-identical for any worker
count. _estimate is the one place where the mean heat lost becomes a content.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import samplers
from .heat_oracles import Disk, Interval, disk_survival_block, exact_deficit_interval, exact_H_interval
from .levy_exponents import MixedStable, Regime, regime
from .samplers import (
    Estimate,
    Kind,
    TimeChangeSpec,
    UnsupportedConfigurationError,
    run_blocks,
    sample_clock,
)


_LOG_RANGE = math.log(1e300)


def _is_saturation(beta, t, u_cap):
    """(s_cap, e_sat) of a beta-stable clock at time t against the clock value u_cap.

    In Kanter form D_t = t^(1/b) (A/e)^((1-b)/b) passes u_cap = s_cap t^(1/b)
    only for e below e_sat = A(0+) s_cap^(-b/(1-b)) or so: a rare event, which
    the importance proposal targets, while e_sat < 1.
    """
    log_scale = math.log(t) / beta
    if max(abs(log_scale), abs(math.log(u_cap) - log_scale)) > _LOG_RANGE:
        raise ValueError(
            f"clock time {t:g} is out of range for importance sampling at index {beta:g}: "
            f"the clock scale t^(1/b) = e^{log_scale:.0f} must lie within 1e300 of 1 and of "
            f"the deficit's time scale pi L^2/4 = {u_cap:g}"
        )
    s_cap = u_cap / t ** (1.0 / beta)
    return s_cap, samplers.kanter_angle_min(beta) * s_cap ** (-beta / (1.0 - beta))


def _is_stable_draws(beta, t, u_cap, n, stream):
    """Importance-sampled stable subordinator draws and their weights.

    Proposals are log-uniform in the Kanter angle complement v = 1 - u and in
    the exponential variate e, tuned so the draws cover the full range of
    clock values u up to u_cap; for the interval deficit L - Q(u) that is
    pi L^2 / 4, beyond which Q has decayed.
    """
    s_cap, e_sat = _is_saturation(beta, t, u_cap)
    sig_b = np.sin(beta * np.pi) ** beta * np.sin((1.0 - beta) * np.pi) ** (1.0 - beta)
    e_min = max(e_sat * 1e-6, 1e-300)
    e_max = 50.0
    A_need = s_cap ** (beta / (1.0 - beta)) * e_max
    v_sat = (sig_b / np.pi) * A_need ** (-(1.0 - beta))
    v_min = max(min(v_sat * 1e-6, 1e-4), 1e-290)
    log_v = np.log(1.0 / v_min)
    log_e = np.log(e_max / e_min)
    v = v_min * np.exp(log_v * stream.uniforms(n))
    e = e_min * np.exp(log_e * stream.uniforms(n))
    w = (log_v * v) * (log_e * e * np.exp(-e))
    a = samplers.kanter_angle_tail(v, beta)
    with np.errstate(over="ignore"):
        d = np.minimum(t ** (1.0 / beta) * (a / e) ** ((1.0 - beta) / beta), 1e300)
    return d, w


def _deficit_is_draws(exp, t, dom, u_cap, n, stream):
    """Weighted draws of the spectral deficit |Omega| - Q(D_t) via importance
    sampling; tempered exponents ride the stable proposal through an exact
    exponential tilt of the marginal density."""
    if isinstance(exp, MixedStable):
        # Telescope the deficit d = |Omega| - Q over components: with partial
        # sums S_j = D_1 + ... + D_j, write d(S_N) as the sum over j of
        # d(S_{j-1} + D_j) - d(S_{j-1}), importance-sample D_j only, and draw
        # S_{j-1} plainly with exact Kanter marginals.  Each increment is
        # nonnegative and pointwise below the weighted single-component
        # deficit (d is concave increasing in the clock), so every term's
        # variance is dominated by ordinary single-component importance
        # sampling.  Multiplying the component weights instead degrades badly
        # once t is deep in the short-time regime.
        out = np.zeros(n)
        s_prev = np.zeros(n)
        for i, (b, wt) in enumerate(exp.components):
            di, wi = _is_stable_draws(b, wt * t, u_cap, n, stream.spawn(1 + 2 * i))
            d_lo = exact_deficit_interval(dom, s_prev)
            d_hi = exact_deficit_interval(dom, np.minimum(s_prev + di, 1e300))
            out = out + (d_hi - d_lo) * wi
            if i + 1 < len(exp.components):
                plain = samplers.sample_stable(b, wt * t, stream.spawn(2 + 2 * i), n)
                s_prev = np.minimum(s_prev + plain, 1e300)
        return out
    d, w = _is_stable_draws(exp.beta, t, u_cap, n, stream)
    if exp.theta > 0.0:
        with np.errstate(under="ignore"):
            w = w * np.exp(-exp.theta * d + t * exp.theta**exp.beta)
    return exact_deficit_interval(dom, d) * w


def _spectral_kernel(args, stream, lo, size, n):
    # both branches return deficit draws |Omega| - Q; a subordinator of
    # leading index <= 1/2 is importance-sampled while the deficit is a rare
    # event for every component
    spec, dom, t = args
    exp = spec.exponent
    u_cap = np.pi * dom.length * dom.length / 4.0
    if (
        spec.kind is Kind.SUBORDINATOR
        and regime(exp) is not Regime.HIGH_INDEX
        and all(_is_saturation(b, w * t, u_cap)[1] < 1.0 for b, w in exp.components)
    ):
        return _deficit_is_draws(exp, t, dom, u_cap, size, stream)
    return exact_deficit_interval(dom, sample_clock(spec, t, stream, size))


def _regular_kernel(args, stream, lo, size, n):
    spec, dom, t = args
    return exact_H_interval(dom, sample_clock(spec, t, stream, size))


def _disk_kernel(args, stream, lo, size, n):
    spec, dom, t = args
    u = sample_clock(spec, t, stream, size)
    surv = disk_survival_block(dom.radius, u, stream, strat_index=lo, strat_total=n, n=size)
    return dom.volume * (1.0 - surv)


def _estimate(kernel, args, n, stream, workers, *, want=Interval, content=True):
    """Run kernel, whose args start with (spec, dom, t), over n paths.

    Every kernel returns the heat lost per path. Its mean, clamped to the
    physical range [0, |Omega|], is the estimate's deficit; a content row's
    value is |Omega| minus it, a regular row's value the deficit itself.
    """
    _, dom, t = args[:3]
    if not isinstance(dom, want):
        other = "estimate_spectral_disk" if want is Interval else "the interval estimators"
        raise UnsupportedConfigurationError(
            f"domain {type(dom).__name__} not supported here; use {other}"
        )
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t}")
    if n < 2:
        raise ValueError("need at least 2 paths")
    start = time.perf_counter()
    mean, se = run_blocks(kernel, args, n, stream, workers)
    deficit = min(max(mean, 0.0), dom.volume)
    value = dom.volume - deficit if content else deficit
    return Estimate(value, deficit, se, n, stream.seed, time.perf_counter() - start)


def estimate_spectral_subordinate(exp, dom, t, n, stream, *, workers=1):
    """Spectral heat content of Brownian motion subordinated by exp at time t.

    Conditioning on the clock D_t reduces each path to the exact interval heat
    lost |Omega| - Q(D_t); deep-time low-index runs switch to importance
    sampling.
    """
    spec = TimeChangeSpec(exp, Kind.SUBORDINATOR)
    return _estimate(_spectral_kernel, (spec, dom, t), n, stream, workers)


def estimate_spectral_inverse(exp, dom, t, n, stream, *, workers=1):
    """Spectral heat content under an inverse subordinator clock.

    The inverse clock is continuous, so the killed and time-changed-then-
    killed contents coincide and one estimator serves both.
    """
    spec = TimeChangeSpec(exp, Kind.INVERSE)
    return _estimate(_spectral_kernel, (spec, dom, t), n, stream, workers)


def estimate_regular(exp, dom, t, n, stream, kind, *, workers=1):
    """Regular heat content: expected heat mass in the complement at time t."""
    spec = TimeChangeSpec(exp, Kind(kind))
    return _estimate(_regular_kernel, (spec, dom, t), n, stream, workers, content=False)


def estimate_spectral_disk(exp, dom, t, n, stream, kind, *, workers=1):
    """Two-stage disk estimate: draw the clock, then one killed walk per clock."""
    spec = TimeChangeSpec(exp, Kind(kind))
    return _estimate(_disk_kernel, (spec, dom, t), n, stream, workers, want=Disk)
