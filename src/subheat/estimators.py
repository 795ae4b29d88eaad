"""Monte Carlo estimators of spectral and regular heat contents.

One entry point, estimate(spec, dom, t, n, stream, quantity), serves every
domain and quantity: the domain's ORACLES table maps the quantity to its
exact heat lost f(dom, u), its rate f'(u) and its Laplace transform, and
nothing else depends on the domain.  All estimation is Rao-Blackwellized: a
path of the time change is drawn, then f at that clock value replaces the
Brownian indicator.  Deep-time subordinator runs (leading index <= 1/2) of a
content |Omega| - f, the spectral one, use importance sampling on the Kanter
representation while f is a rare event of the clock, because plain draws
almost never land where it is nonzero once t is of order 1e-8.  Each weighted path is a smooth function
of two uniforms per stable component, so that route draws them from scrambled
Sobol nets, which integrate such functions far faster than n^(-1/2) (Owen
1997), and takes its stderr from the spread of independently scrambled nets.
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
e^_log_tilt, e^(clock * sum of w theta^b - theta d); their stable values come
from the one Kanter form, samplers._kanter_stable.

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
import time

import numpy as np

from . import samplers
from .heat_oracles import QUANTITIES, inverse_reference
from .levy_exponents import MixedStable, Regime, Stable, phi, regime
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
    the importance proposal targets while e_sat is below _is_switch(b).  The
    proposal's angle grows like s_cap^(b/(1-b)), which must stay within 1e300
    of 1 too; it can leave that range only for b > 1/2, where no estimate
    takes this route.
    """
    log_scale = math.log(t) / beta
    log_cap = math.log(u_cap) - log_scale
    if max(abs(log_scale), abs(log_cap), abs(log_cap * beta / (1.0 - beta))) > _LOG_RANGE:
        raise ValueError(
            f"clock time {t:g} is out of range for importance sampling at index {beta:g}: "
            f"the clock scale t^(1/b) = e^{log_scale:g} must lie within 1e300 of 1 and of "
            f"the deficit's time scale pi L^2/4 = {u_cap:g}, and their ratio "
            f"s = e^{log_cap:g} must have s^(b/(1-b)) within 1e300 of 1"
        )
    s_cap = u_cap / t ** (1.0 / beta)
    return s_cap, samplers.kanter_angle_min(beta) * s_cap ** (-beta / (1.0 - beta))


# (index, e_sat) where the importance proposal's stderr meets that of plain
# draws, measured on stable clocks at 65,536 paths (interval (0, 1), six
# seeds): the proposal is up to 50x better below and up to 70x worse above
_IS_CROSSOVER = ((0.1, 6e-3), (0.25, 2e-3), (0.4, 8e-5), (0.5, 1e-6))


def _is_switch(beta):
    """e_sat below which importance sampling beats plain draws at index beta,
    log-interpolated in the measured crossovers."""
    b, e = zip(*_IS_CROSSOVER)
    return 10.0 ** np.interp(beta, b, np.log10(e))


def _is_stable_draws(beta, t, u_cap, u_v, u_e):
    """Importance-sampled stable subordinator draws and their weights, one
    per pair of uniforms (u_v, u_e) in (0, 1).

    Proposals are log-uniform in the Kanter angle complement v = 1 - u and in
    the exponential variate e, tuned so the draws cover the full range of
    clock values u up to u_cap, the domain's saturation clock, beyond which
    Q has decayed.
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
    v = v_min * np.exp(log_v * u_v)
    e = e_min * np.exp(log_e * u_e)
    w = (log_v * v) * (log_e * e * np.exp(-e))
    return samplers._kanter_stable(beta, t, samplers.kanter_ratio_tail(v, beta), e), w


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


def _deficit_is_draws(args, stream, lo, size, n):
    """Replicate means of the spectral deficit |Omega| - Q(D_t), importance
    sampled; tempered exponents ride the stable proposal through an exact
    exponential tilt of the marginal density.

    The uniforms are scrambled Sobol nets of 2^_net_log2(n) points, one
    independent randomization per net, so the block returns one mean per net
    and run_blocks takes the stderr from their spread.  A ragged last block
    completes its last net, scoring fewer than one net's points past n.
    """
    exp, dom, t = args
    deficit = dom.ORACLES["spectral"][0]
    u_cap = dom.saturation_clock
    m = _net_log2(n)
    nets = -(-size >> m)
    comps = exp.components
    # columns 4i, 4i + 1 importance-sample component i; 4i + 2, 4i + 3 draw it plainly
    u = samplers.sobol_uniforms(stream, 4 * len(comps) - 2, nets, m)
    # Telescope the deficit d = |Omega| - Q over components: with partial
    # sums S_j = D_1 + ... + D_j, write d(S_N) as the sum over j of
    # d(S_{j-1} + D_j) - d(S_{j-1}), importance-sample D_j only, and draw
    # S_{j-1} plainly with exact Kanter marginals.  Each increment is
    # nonnegative and pointwise below the weighted single-component deficit
    # (d is concave increasing in the clock), so every term's variance is
    # dominated by ordinary single-component importance sampling.
    # Multiplying the component weights instead degrades badly once t is
    # deep in the short-time regime.
    s_prev = 0.0
    for i, (b, wt) in enumerate(comps):
        d, w = _is_stable_draws(b, wt * t, u_cap, u[4 * i], u[4 * i + 1])
        if i == 0:  # d(S_0) = d(0) = 0 needs no oracle call
            out = deficit(dom, d) * w
        else:
            out += (deficit(dom, np.minimum(s_prev + d, 1e300)) - deficit(dom, s_prev)) * w
        if i + 1 < len(comps):
            s_prev = np.minimum(s_prev + samplers.stable_from_uniforms(b, wt * t, u[4 * i + 2], u[4 * i + 3]), 1e300)
    if exp.theta > 0.0:  # a tempered exponent has one component, drawn as d
        with np.errstate(under="ignore"):
            out *= np.exp(_log_tilt(exp, t, d))
    return out.reshape(nets, -1).mean(axis=1)


def _importance_sampled(exp, t, u_cap):
    """Whether a subordinator's deficit at t is importance-sampled: leading
    index <= 1/2, and the deficit rare enough for every component that the
    proposal beats plain draws."""
    return regime(exp) is not Regime.HIGH_INDEX and all(
        _is_saturation(b, w * t, u_cap)[1] < _is_switch(b) for b, w in exp.components
    )


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

    A non-stable inverse clock without a set grid step takes the duality
    kernel in the small-time regime u0 theta^b <= 1, u0 = 1/phi(1/t) being
    the scale of E_t; past it E_t concentrates near t/phi'(0) and the grid
    walk is cheap, while the tilt weight's variance grows like
    e^(u (2 theta^b - (2 theta)^b)).  A tempered clock on it scores the
    difference from its untempered twin (same components, theta = 0), and the
    offset is the twin's exact E f(E_t) from inverse_reference.  A spectral
    subordinator row takes importance sampling where _importance_sampled says
    so, which refuses a clock time out of its range before any block runs.
    Everything else draws the clock.  Every route but tempered duality has
    offset 0.0.
    """
    exp = spec.exponent
    if spec.kind is Kind.INVERSE:
        if spec.grid_step is None and not isinstance(exp, Stable) and _tilt_rate(exp) <= phi(exp, 1.0 / t):
            twin = inverse_reference(MixedStable(exp.components), dom, t, quantity) if exp.theta > 0.0 else 0.0
            return _duality_kernel, (spec, dom, t, quantity, *_duality_horizons(exp, t)), twin
    elif QUANTITIES[quantity].complement and _importance_sampled(exp, t, dom.saturation_clock):
        return _deficit_is_draws, (exp, dom, t), 0.0
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
    start = time.perf_counter()
    kernel, args, offset = _clock_kernel(spec, dom, t, quantity)
    mean, se = run_blocks(kernel, args, n, stream, workers)
    deficit = min(max(mean + offset, 0.0), dom.volume)
    value = dom.volume - deficit if QUANTITIES[quantity].complement else deficit
    return Estimate(value, deficit, se, n, stream.seed, time.perf_counter() - start)


def estimate_spectral_subordinate(exp, dom, t, n, stream, *, workers=1):
    """Spectral heat content of Brownian motion subordinated by exp at time t."""
    return estimate(TimeChangeSpec(exp, Kind.SUBORDINATOR), dom, t, n, stream, workers=workers)


def estimate_spectral_inverse(exp, dom, t, n, stream, *, workers=1, grid_step=None):
    """Spectral heat content under an inverse subordinator clock; the clock
    is continuous, so the killed and time-changed-then-killed contents
    coincide and one estimator serves both.  A set grid_step walks the grid."""
    return estimate(TimeChangeSpec(exp, Kind.INVERSE, grid_step), dom, t, n, stream, workers=workers)


def estimate_regular(exp, dom, t, n, stream, kind, *, workers=1, grid_step=None):
    """Regular heat content: expected heat mass in the complement at time t."""
    return estimate(TimeChangeSpec(exp, Kind(kind), grid_step), dom, t, n, stream, "regular", workers=workers)
