"""Monte Carlo estimators of spectral and regular heat contents.

One entry point, estimate(spec, dom, t, n, stream, quantity), serves every
domain and quantity: the domain's ORACLES table maps the quantity to its
exact heat lost f(dom, u), its rate f'(u) and its Laplace transform, and
nothing else depends on the domain.  All estimation is Rao-Blackwellized: a
path of the time change is drawn, then f at that clock value replaces the
Brownian indicator.  A subordinator row of either quantity, at any index,
is importance sampled on the Kanter representation while the untempered
clock's scale t phi(1/u_cap) against the domain's saturation clock u_cap is
at most 1/20 and its tilt is small, because below that the heat lost is a
rare event of the clock, which plain draws almost never reach; past it
plain draws take over.  Each weighted path is a smooth function of two
uniforms per stable component, so that route draws them from scrambled
Sobol nets, which integrate such functions far faster than n^(-1/2)
(Owen 1997), and takes its stderr from the spread of independently
scrambled nets.  Its proposal, samplers._is_stable_draws, is formed in
logs, and its draws from the log-uniform exponents by exp, log and tan,
which NumPy vectorizes, scored a slice of _IS_SLICE paths at a time, so a
one-component weighted path costs no more than a plain one.
The plain and duality routes stay on Philox streams.

Inverse clocks without a closed-form E_t are estimated by duality at small
times: since {E_t > u} = {D_u < t}, E f(E_t) is the integral of
f'(u) P(D_u < t), and each path scores one draw at a random u instead of
walking a grid to the first passage of t.  u comes from a defensive mixture
concentrated below the Chernoff horizon u_bulk, past which P(D_u < t) < e^-2,
with a share spread to the far horizon u_max, so the weights stay bounded;
each path scores P(D_u < t) given the Kanter angle of the clock's last
component and the plain draws of the others, so nearly every path scores.
That score is the untempered twin's, and the small-time law of E_t depends
only on the indexes, so on the same draws the twin carries almost all of a
tempered clock's variance.  A tempered path therefore scores the tempered
score less the twin's, the twin's score times expm1 of the log tilt, and
the estimate adds the twin's exact mean, inverse_reference's Laplace
inversion: a control variate with a known mean (Glasserman 2003, 4.1),
which cuts the variance over 1,000-fold at t = 1e-3 and more at smaller t.

Importance sampling and duality are the two weighted routes.  Both draw the
clock without its tempering and weight a tempered clock by one density ratio,
e^_log_tilt, e^(clock * sum of w theta^b - theta d).  All Kanter arithmetic,
the importance proposal's included, lives in samplers, next to its one
Kanter ratio; this module only scores draws and routes rows.

Each estimator is a block kernel, a few lines that turn one block's clock
draws into the heat lost per path, run by the block engine samplers.run_blocks:
one counter-based stream per block of BLOCK paths, block moments combined by a
pairwise tree in block order, so estimates are bit-identical for any worker
count. estimate is the one place where the mean heat lost becomes a content.
The kernels' args are plain data, (spec, dom, t, quantity, ...), and each
kernel looks its oracle up in dom.ORACLES, so that a process pool can pickle
them.
"""

from __future__ import annotations

import math

import numpy as np

from . import samplers
from .heat_oracles import QUANTITIES, inverse_reference
from .levy_exponents import MixedStable, Stable, phi
from .samplers import (
    Estimate,
    Kind,
    TimeChangeSpec,
    UnsupportedConfigurationError,
    run_blocks,
    sample_clock,
)


# bounds of the scale rule in _clock_kernel, measured on interval (0, 1) at
# 65,536 paths: at t sum w u_cap^(-b) = _IS_SCALE plain draws have 1.0x
# (b = 2^-7) to 24x (b = 1/2) the proposal's variance, and win from 4 to 8
# times it on; tempered clocks at b = 0.05 to 0.2 meet plain draws at 1.1
# to 1.5 times the tilt bound
_IS_SCALE = 0.05
_IS_TILT = 3.0


# scrambled nets an importance-sampled estimate is split into, at least: its
# stderr has that many less one degrees of freedom, and at 32 nets of 256
# points the spread of z over seeds was 1.07 for stable:0.5 at t = 1e-4
# (1,000 seeds), 1.02 at 64 nets
_MIN_NETS = 64


def _net_log2(n):
    """log2 of the points of each scrambled net in an n-path estimate: the
    largest power of two up to 2^12 that leaves at least _MIN_NETS nets, so
    a full block of 2^15 paths holds 8 nets once n reaches 2^18."""
    return min(samplers.SOBOL_LOG2_MAX, max(0, (n // _MIN_NETS).bit_length() - 1))


# paths the weighted kernel scores at a time: its temporaries are then 64 KB,
# which stay in cache and come back from the allocator's free lists, where
# block-sized ones were returned to the system and faulted in again on every
# block (a third of the kernel's time)
_IS_SLICE = 8192


def _deficit_is_draws(args, stream, lo, size, n):
    """Replicate means of the heat lost f(D_t), for the quantity's oracle f,
    importance sampled; tempered exponents ride the stable proposal through
    an exact exponential tilt of the marginal density.

    The uniforms are scrambled Sobol nets of 2^_net_log2(n) points, one
    independent randomization per net, so the block returns one mean per net
    and run_blocks takes the stderr from their spread.  A ragged last block
    completes its last net, scoring fewer than one net's points past n.
    """
    exp, dom, t, quantity = args
    m = _net_log2(n)
    nets = -(-size >> m)
    # columns 4i, 4i + 1 importance-sample component i; 4i + 2, 4i + 3 draw it plainly
    u = samplers.sobol_uniforms(stream, 4 * len(exp.components) - 2, nets, m)
    out = np.empty(u.shape[1])
    for j in range(0, out.size, _IS_SLICE):
        out[j : j + _IS_SLICE] = _is_scores(exp, dom, t, dom.ORACLES[quantity][0], u[:, j : j + _IS_SLICE])
    return out.reshape(nets, -1).mean(axis=1)


def _is_scores(exp, dom, t, f, u):
    """Weighted heat lost, one per column of the uniforms u, which are
    overwritten.

    Telescope f over components: with partial sums S_j = D_1 + ... + D_j,
    write f(S_N) as the sum over j of f(S_{j-1} + D_j) - f(S_{j-1}),
    importance-sample D_j only, and draw S_{j-1} plainly with exact Kanter
    marginals.  Both oracles are increasing with f(0) = 0, and the deficit
    is concave, so each increment is nonnegative and, for the deficit,
    pointwise below the weighted single-component term: every term's
    variance is then dominated by ordinary single-component importance
    sampling.  Multiplying the component weights instead degrades badly
    once t is deep in the short-time regime.
    """
    comps, u_cap = exp.components, dom.saturation_clock
    s_prev = 0.0
    for i, (b, wt) in enumerate(comps):
        d, w = samplers._is_stable_draws(b, wt * t, u_cap, u[4 * i], u[4 * i + 1])
        if i == 0:  # f(S_0) = f(0) = 0 needs no oracle call
            out = w
            out *= f(dom, d)
        else:
            term = f(dom, np.minimum(s_prev + d, 1e300))
            term -= f(dom, s_prev)
            term *= w
            out += term
        if i + 1 < len(comps):
            s_prev = np.minimum(s_prev + samplers.stable_from_uniforms(b, wt * t, u[4 * i + 2], u[4 * i + 3]), 1e300)
    if exp.theta > 0.0:  # a tempered exponent has one component, drawn as d
        with np.errstate(under="ignore"):
            out *= np.exp(_log_tilt(exp, t, d))
    return out


def _draw_kernel(args, stream, lo, size, n):
    # f(clock) for the quantity's oracle f, at one plain clock draw per path
    spec, dom, t, quantity = args
    return dom.ORACLES[quantity][0](dom, sample_clock(spec, t, stream, size))


def _tilt_rate(exp):
    """Sum of w theta^b over components, the rate in _tilt; 0 for an
    untempered exponent."""
    return sum(w * exp.theta**b for b, w in exp.components)


def _log_tilt(exp, clock, d):
    """clock * _tilt_rate - theta d, the log of the density ratio of the
    tempered clock's value d at clock time `clock` to its untempered twin's:
    the weight of both weighted routes, which draw the clock without its
    tempering.  Importance sampling scores with its exp, duality with its
    expm1, the tempered weight less the twin's."""
    return clock * _tilt_rate(exp) - exp.theta * d


# share of the duality proposal spread up to the far horizon u_max, a
# defensive mixture (Hesterberg 1995) that keeps every weight 1/q(v) below
# sqrt(u_max)/_DEFENSIVE
_DEFENSIVE = 0.1
_CHERNOFF_BULK = 2.0  # P(D_u < t) is below e^-2 past the bulk horizon u_bulk
_CHERNOFF_LOG = 700.0  # P(D_u < t) is below e^-700 past the horizon u_max
_HORIZON_LOG_GRID = np.linspace(-10.0, 30.0, 401)  # log(s t) at which the horizons are bounded


def _duality_kernel(args, stream, lo, size, n):
    # E f(E_t) = int f'(u) P(D_u < t) du for f = L - Q or H, both 0 at u = 0,
    # since {E_t > u} = {D_u < t}.  In v = sqrt(u) the integrand
    # f'(v^2) 2v P(D_{v^2} < t) is flat up to about sqrt(u0) and falls off
    # steeply past it; v is drawn from the mixture density
    # q(v) = a/sqrt(u_max) + (1 - a)/sqrt(u_bulk) 1{v <= sqrt(u_bulk)}, which is
    # flat at 0, so 2v/q(v) cancels the u^(-1/2) of f'.  One draw of D_u given
    # D_u < t per path scores P(D_u < t) given its Kanter angle and the other
    # components: the untempered twin's score.  A tempered clock scores its
    # tilted score less the twin's, times expm1(u theta^b - theta D_u), whose
    # mean _clock_kernel adds back exactly
    spec, dom, t, quantity, u_bulk, u_max = args
    exp = spec.exponent
    rate = dom.ORACLES[quantity][1]
    a, root_max, root_bulk = _DEFENSIVE, math.sqrt(u_max), math.sqrt(u_bulk)
    x = 1.0 - stream.uniforms(size)  # in (0, 1], so v > 0 and f'(v^2) stays finite
    v = np.where(x <= a, x * (root_max / a), (x - a) * (root_bulk / (1.0 - a)))
    q_bulk = a / root_max + (1.0 - a) / root_bulk
    score = v * np.where(v <= root_bulk, 2.0 / q_bulk, 2.0 * root_max / a)  # 2v / q(v)
    u = v * v
    d, p = samplers.sample_untempered_below(exp, u, t, stream)
    score *= rate(dom, u)
    score *= p
    if exp.theta > 0.0:
        score *= np.expm1(_log_tilt(exp, u, d))
    return score


def _duality_horizons(exp, t):
    """(u_bulk, u_max), past which P(D_u < t) is below e^-2 and e^-700.

    For every s > 0, P(D_u < t) <= e^(s t - u phi(s)) (Chernoff), so past
    min over s of (s t + c)/phi(s) it is below e^-c; u_max leaves out at
    most L e^-700 of the heat lost.  Both minima are taken from one phi call
    on a log grid of s around 1/t, where they lie for every index; any s on
    the grid gives a valid bound.  The e^-2 bound lies below the e^-700 one
    at every s, so u_bulk < u_max.  An untempered twin has the larger phi,
    so its own horizons lie inside these and u_max leaves out at most
    L e^-700 of its heat lost too.
    """
    s = np.exp(np.minimum(_HORIZON_LOG_GRID - math.log(t), 700.0))
    st, phi_s = s * t, phi(exp, s)
    return tuple(float(((st + c) / phi_s).min()) for c in (_CHERNOFF_BULK, _CHERNOFF_LOG))


def _clock_kernel(spec, dom, t, quantity):
    """Kernel, args and exact offset of an estimate of f(clock) for the
    quantity's oracle f, the one place where an estimate's route is chosen:
    the estimate is the kernel's mean plus the offset.

    A subordinator row, of either quantity and at any index, is importance
    sampled while its untempered twin's clock scale t sum w u_cap^(-b), about
    the chance that it passes the saturation clock u_cap, is at most
    _IS_SCALE and its tilt t sum w theta^b at most the smallest index over
    _IS_TILT, bounds that Brownian scaling leaves as they are; past them the
    heat lost is no longer a rare event of the clock and plain draws take
    over.  samplers._is_saturation refuses, before any block runs, a
    weighted row whose clock scale (w t)^(1/b) has a log beyond its range,
    and a plain row is refused where that scale is above the draws' 1e300
    cap.
    A non-stable inverse clock without a set grid step takes the duality
    kernel in the small-time regime u0 theta^b <= 1, u0 = 1/phi(1/t) being
    the scale of E_t; past it E_t concentrates near t/phi'(0) and the grid
    walk is cheap, while the tilt weight's variance grows like
    e^(u (2 theta^b - (2 theta)^b)).  A tempered clock on it scores the
    difference from its untempered twin (same components, theta = 0), and the
    offset is the twin's exact E f(E_t) from inverse_reference.
    Every other inverse clock draws its clock.  Every route but tempered
    duality has offset 0.0.
    """
    exp = spec.exponent
    if spec.kind is Kind.INVERSE:
        if spec.grid_step is None and not isinstance(exp, Stable) and _tilt_rate(exp) <= phi(exp, 1.0 / t):
            twin = inverse_reference(MixedStable(exp.components), dom, t, quantity) if exp.theta > 0.0 else 0.0
            return _duality_kernel, (spec, dom, t, quantity, *_duality_horizons(exp, t)), twin
        return _draw_kernel, (spec, dom, t, quantity), 0.0
    u_cap, comps = dom.saturation_clock, exp.components
    if t * sum(w * u_cap**-b for b, w in comps) <= _IS_SCALE and t * _tilt_rate(exp) <= comps[0][0] / _IS_TILT:
        for b, w in comps:
            samplers._is_saturation(b, w * t, u_cap)
        return _deficit_is_draws, (exp, dom, t, quantity), 0.0
    for b, w in comps:
        if math.log(w * t) > b * samplers._LOG_CAP:
            raise ValueError(
                f"clock time {w * t:g} at index {b:g} puts the clock scale (w t)^(1/b) = "
                f"e^{math.log(w * t) / b:g} above the 1e300 cap of plain clock draws"
            )
    return _draw_kernel, (spec, dom, t, quantity), 0.0


def estimate(spec, dom, t, n, stream, quantity="spectral", *, workers=1):
    """Spectral or regular heat content of dom at time t under the clock spec.

    quantity names an entry of dom.ORACLES: "spectral" for the content of
    the motion killed at the boundary, "regular" for the heat mass H pushed
    into the complement.  Each path scores the quantity's exact heat lost f
    at one clock draw, on the route _clock_kernel picks.  The mean heat lost,
    with the route's exact offset added and then clamped to [0, |Omega|], is
    the estimate's deficit; the value is |Omega| less it where the quantity's
    record says so, else the deficit itself.
    """
    if quantity not in dom.ORACLES:
        raise UnsupportedConfigurationError(
            f"{type(dom).__name__} has no {quantity} heat-content oracle; "
            f"it supports {', '.join(dom.ORACLES)}"
        )
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t}")
    if n < 2:
        raise ValueError("need at least 2 paths")
    kernel, args, offset = _clock_kernel(spec, dom, t, quantity)
    mean, se = run_blocks(kernel, args, n, stream, workers)
    deficit = min(max(mean + offset, 0.0), dom.volume)
    value = dom.volume - deficit if QUANTITIES[quantity].complement else deficit
    return Estimate(value, deficit, se, n)


def estimate_spectral_subordinate(exp, dom, t, n, stream, *, workers=1):
    """Spectral heat content of Brownian motion subordinated by exp at time t."""
    return estimate(TimeChangeSpec(exp, Kind.SUBORDINATOR), dom, t, n, stream, workers=workers)


def estimate_spectral_inverse(exp, dom, t, n, stream, *, workers=1):
    """Spectral heat content under an inverse subordinator clock; the clock
    is continuous, so the killed and time-changed-then-killed contents
    coincide and one estimator serves both."""
    return estimate(TimeChangeSpec(exp, Kind.INVERSE), dom, t, n, stream, workers=workers)


def estimate_regular(exp, dom, t, n, stream, kind, *, workers=1):
    """Regular heat content: expected heat mass in the complement at time t."""
    return estimate(TimeChangeSpec(exp, Kind(kind)), dom, t, n, stream, "regular", workers=workers)
