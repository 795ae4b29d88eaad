import hashlib
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gamma, ndtr

from subheat import (
    Kind,
    MixedStable,
    RandomStream,
    RunawaySamplerError,
    Stable,
    TemperedStable,
    TimeChangeSpec,
    kanter_angle,
    phi,
    sample_inverse,
    sample_stable,
    sample_subordinator,
    sample_tempered,
)
from subheat import samplers
from subheat.asymptotics import inverse_moment
from subheat.samplers import BLOCK


def _mean_se(x):
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))


def test_random_stream_reproducible_and_spawnable():
    a = RandomStream(3, 17).uniforms(8)
    b = RandomStream(3, 17).uniforms(8)
    assert np.array_equal(a, b)
    c = RandomStream(3, 18).uniforms(8)
    assert not np.array_equal(a, c)
    assert np.array_equal(RandomStream(3, 10).spawn(7).uniforms(4), RandomStream(3, 17).uniforms(4))
    u = RandomStream(0, 0).uniforms(10_000)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_kanter_angle_range_and_endpoints():
    beta = 0.3
    u = np.linspace(1e-9, 1.0 - 1e-9, 1001)
    a = kanter_angle(u, beta)
    a0 = (beta**beta * (1.0 - beta) ** (1.0 - beta)) ** (1.0 / (1.0 - beta))
    assert np.all(a >= a0 * (1.0 - 1e-12))
    assert np.all(np.isfinite(a))
    # A is continuous and blows up at u -> 1
    assert a[-1] > a[len(a) // 2] > a[0] or a[0] > a0


def test_kanter_angle_matches_mpmath_at_both_ends():
    # A(u) against 60 digits at u = 2^-k and 1 - 2^-k, wherever A is a
    # finite double: the Kanter ratio is taken in logs, so no sine cancels
    # at either end, where the former sine-power form was 0.86 off at
    # b = 3/4, u = 1 - 2^-53
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    ks = (1, 5, 10, 20, 30, 40, 50, 53)
    u = np.array([2.0**-k for k in ks] + [1.0 - 2.0**-k for k in ks])
    for beta in (2.0**-7, 0.25, 0.5, 0.75, 0.99):
        with np.errstate(over="ignore"):
            got = kanter_angle(u, beta)
        b = mpmath.mpf(beta)
        want = np.array([
            float((mpmath.sin(b * mpmath.pi * x) ** b * mpmath.sin((1 - b) * mpmath.pi * x) ** (1 - b)
                   / mpmath.sin(mpmath.pi * x)) ** (1 / (1 - b)))
            for x in map(mpmath.mpf, u)
        ])
        finite = np.isfinite(want)
        assert finite.sum() >= 11, beta
        assert np.max(np.abs(got[finite] / want[finite] - 1.0)) <= 1e-11, beta


@pytest.mark.parametrize("beta,moment", [(0.75, 0.3), (0.5, 0.2), (0.25, 0.1)])
def test_stable_moments_match_gamma_ratio(beta, moment):
    # E[S_1^g] = Gamma(1 - g/beta) / Gamma(1 - g) for g < beta
    target = gamma(1.0 - moment / beta) / gamma(1.0 - moment)
    s = sample_stable(beta, 1.0, RandomStream(11), 400_000)
    m, se = _mean_se(s**moment)
    assert abs(m - target) <= 4.0 * se


def test_stable_half_matches_inverse_gaussian_law():
    # for beta = 1/2 the subordinator marginal is t^2 / (2 Z^2) exactly
    t = 0.7
    s = sample_stable(0.5, t, RandomStream(5), 50_000)

    def cdf(x):
        return 2.0 * ndtr(-t / np.sqrt(2.0 * np.asarray(x, dtype=float)))

    res = stats.kstest(s, cdf)
    assert res.pvalue > 0.01


def test_stable_scaling_in_t():
    # S_4 equals 4^(1/beta) S_1 in law
    beta = 0.75
    a = sample_stable(beta, 4.0, RandomStream(7), 20_000)
    b = sample_stable(beta, 1.0, RandomStream(8), 20_000) * 4.0 ** (1.0 / beta)
    res = stats.ks_2samp(a, b)
    assert res.pvalue > 0.01


@pytest.mark.parametrize(
    "exp,t",
    [
        (TemperedStable(0.5, 1.0), 0.4),
        (TemperedStable(0.3, 2.5), 0.7),
        (MixedStable(((0.25, 1.0), (0.5, 1.0))), 0.5),
    ],
)
@pytest.mark.parametrize("s", [0.6, 2.5])
def test_sampler_laplace_transform(exp, t, s):
    # E[e^(-s D_t)] = e^(-t phi(s)) pins the whole marginal law
    d = sample_subordinator(exp, t, RandomStream(13), 400_000)
    m, se = _mean_se(np.exp(-s * d))
    target = math.exp(-t * phi(exp, s))
    assert abs(m - target) <= 4.0 * se


def test_tempered_agrees_with_direct_call():
    d1 = sample_tempered(0.5, 1.0, 0.4, RandomStream(21), 1000)
    d2 = sample_subordinator(TemperedStable(0.5, 1.0), 0.4, RandomStream(21), 1000)
    assert np.array_equal(d1, d2)


def test_samplers_reject_bad_arguments():
    with pytest.raises(ValueError):
        sample_stable(1.2, 1.0, RandomStream(0), 4)
    with pytest.raises(ValueError):
        sample_stable(0.5, 0.0, RandomStream(0), 4)
    with pytest.raises(ValueError):
        sample_tempered(0.5, -1.0, 1.0, RandomStream(0), 4)


def test_inverse_half_matches_folded_normal_law():
    # E_t for the 1/2-stable clock is |N(0, 2t)|: P(E_t <= u) = erf(u / (2 sqrt(t)))
    t = 0.09
    spec = TimeChangeSpec(Stable(0.5), Kind.INVERSE)
    e = sample_inverse(spec, t, RandomStream(29), 20_000)

    def cdf(u):
        return 2.0 * ndtr(np.asarray(u, dtype=float) / math.sqrt(2.0 * t)) - 1.0

    res = stats.kstest(e, cdf)
    assert res.pvalue > 0.01


def test_inverse_small_index_moments():
    # at b = 1e-3, S_1 = (A/E)^999 leaves double range for most draws, while
    # E_1 itself is of order 1
    beta, n = 1e-3, 200_000
    e = sample_inverse(TimeChangeSpec(Stable(beta), Kind.INVERSE), 1.0, RandomStream(3), n)
    assert np.all(np.isfinite(e))
    for p in (0.5, 1.0):
        mean, se = _mean_se(e**p)
        assert abs(mean - inverse_moment(beta, p)) <= 4.0 * se


# a single-component mixture is the same clock as Stable(0.5) but takes the
# grid first-passage path instead of the exact inversion, so the folded
# normal law doubles as an oracle for the grid machinery
GRID_HALF = MixedStable(((0.5, 1.0),))


def test_grid_inverse_matches_folded_normal_law():
    t = 0.09
    spec = TimeChangeSpec(GRID_HALF, Kind.INVERSE, grid_step=t * 1e-3)
    e = sample_inverse(spec, t, RandomStream(29), 20_000)

    def cdf(u):
        return 2.0 * ndtr(np.asarray(u, dtype=float) / math.sqrt(2.0 * t)) - 1.0

    res = stats.kstest(e, cdf)
    assert res.pvalue > 0.01


def test_inverse_grid_bias_shrinks_with_step():
    # first-crossing detection on a grid biases E_t upward by O(grid_step)
    t = 0.04
    target = math.sqrt(2.0 * t) * math.sqrt(2.0 / math.pi)  # E|N(0, 2t)|
    errs = []
    for k, step in enumerate((t / 20.0, t / 160.0)):
        e = samplers._grid_inverse_block(GRID_HALF, t, step, 0, RandomStream(31 + k), 60_000)
        errs.append(abs(float(e.mean()) - target))
    assert errs[1] < errs[0]


def test_inverse_refinement_tightens_the_crossing():
    t = 0.04
    spec = TimeChangeSpec(GRID_HALF, Kind.INVERSE, grid_step=t / 20.0)
    target = math.sqrt(2.0 * t) * math.sqrt(2.0 / math.pi)
    e0 = float(samplers._grid_inverse_block(GRID_HALF, t, t / 20.0, 0, RandomStream(37), 60_000).mean())
    e1 = float(sample_inverse(spec, t, RandomStream(37), 60_000).mean())
    assert abs(e1 - target) < abs(e0 - target)


def _grid_walk(exp, t, h, seed, n):
    return sample_inverse(TimeChangeSpec(exp, Kind.INVERSE, grid_step=h), t, RandomStream(seed), n)


@pytest.mark.parametrize(
    "draw,digest",
    [
        # t theta^b = 0.3: one tilt chunk per value
        (
            lambda: sample_tempered(0.5, 1.0, 0.3, RandomStream(41), 5000),
            "1e5bf350b12fe56898a5019352aeea22a64d0895a1b763255a38282b2b921b1c",
        ),
        # t theta^b = 40: forty chunks per value
        (
            lambda: sample_tempered(0.5, 1.0, 40.0, RandomStream(42), 2000),
            "4bc6f276bbd157723d3c77c7add390f5f0706247f71491eebef5382e90e9f19c",
        ),
        # h theta^b = 1e-3: rows of 500 walk increments accepted whole
        (
            lambda: _grid_walk(TemperedStable(0.5, 1.0), 0.1, 1e-3, 43, 500),
            "5824c8f81139ca59f9801f3c98fc89b5c00d8bd41e1020d3c031ff5a3709e7f0",
        ),
        # h theta^b = 3.4 > 1/2: one walk increment per row, over four chunks
        (
            lambda: _grid_walk(TemperedStable(0.75, 2.0), 10.0, 2.0, 44, 300),
            "290db1676d58acb7d9487199c6be19f59203b9427d7a1ac97afed942f03ac435",
        ),
    ],
    ids=["one-chunk", "many-chunks", "walk-rows", "walk-values"],
)
def test_tempered_draws_keep_their_bits(draw, digest):
    # sha256 of the bytes of tempered draws through each path of the tilt
    # rejection loop; a change here moves the inverse-universality check and
    # every tempered estimate
    assert hashlib.sha256(draw().tobytes()).hexdigest() == digest


def test_kanter_draws_stay_finite_near_index_one():
    # at b = 0.999 the power 1/(1-b) of the Kanter ratio would leave double
    # range for 0.1% of draws; S_1 and E_1 take one power of a product of
    # the ratio instead, so every draw stays finite
    beta, n = 0.999, 262_144
    s = sample_stable(beta, 1.0, RandomStream(3), n)
    e = sample_inverse(TimeChangeSpec(Stable(beta), Kind.INVERSE), 1.0, RandomStream(3), n)
    assert np.all(s < 1e300) and np.all(s > 0.0)
    assert np.all(e > 0.0) and np.all(np.isfinite(e))
    for p in (0.5, 1.0):
        mean, se = _mean_se(e**p)
        assert abs(mean - inverse_moment(beta, p)) <= 4.0 * se


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="long double is double here")
def test_kanter_stable_matches_a_long_double_reference():
    # S_t against exp((log t + log rho - (1-b) log E) / b) in long double from
    # the same Kanter ratio rho and exponential E, wherever S_t is a normal
    # double below the 1e300 cap: the one power of one product loses no more
    # than rounding, from b = 2^-7 to b = 0.999 and t = 1e-100 to 1e6
    tiny = np.finfo(float).tiny
    for beta in (2.0**-7, 0.05, 0.25, 0.5, 0.75, 0.99, 0.999):
        ratio, e = samplers._kanter_variates(beta, RandomStream(5), 65_536)
        log_rho_e = np.log(ratio.astype(np.longdouble)) - (1.0 - beta) * np.log(e.astype(np.longdouble))
        checked = 0
        for t in (1e-100, 1e-10, 1.0, 1e6):
            s = samplers._kanter_stable(beta, t, ratio.copy(), e)
            # the log form, which the weighted route takes, loses up to
            # 1.5e-13 at b = 2^-7: the power form stays for plain draws
            s_log = samplers._kanter_stable_from_logs(beta, math.log(t), np.log(ratio), np.log(e))
            ref = np.exp((np.log(np.longdouble(t)) + log_rho_e) / beta)
            normal = (ref >= tiny) & (ref < 1e300)
            for got, bound in ((s, 1e-13), (s_log, 3e-13)):
                err = np.abs(got[normal] - ref[normal]) / ref[normal]
                assert float(err.max(initial=0.0)) <= bound, (beta, t, bound, float(err.max()))
            checked += np.count_nonzero(normal)
        assert checked > 0, beta


@pytest.mark.parametrize("t", [1e-3, 1.0, 1e6])
def test_tiny_index_stable_draws_stay_in_range(t):
    # at b = 2^-7, (A/E)^127 overflows where t^128 underflows, and t^128
    # overflows at t = 1e6, so S_t and E_t hold only if neither power is
    # taken on its own
    beta, n = 2.0**-7, 2**18
    s = sample_subordinator(Stable(beta), t, RandomStream(7), n)
    assert not np.isnan(s).any()
    e = sample_inverse(TimeChangeSpec(Stable(beta), Kind.INVERSE), t, RandomStream(7), n)
    assert np.all(np.isfinite(e)) and np.all(e > 0.0)


def test_inverse_runaway_guard():
    # a tempered clock has finite mean rate, so an absurdly small grid step
    # implies more steps than the guard allows and must be refused upfront
    spec = TimeChangeSpec(TemperedStable(0.5, 1.0), Kind.INVERSE, grid_step=1e-12)
    with pytest.raises(RunawaySamplerError):
        sample_inverse(spec, 1.0, RandomStream(0), 16)


def test_time_change_spec_validation():
    with pytest.raises(ValueError):
        TimeChangeSpec(Stable(0.5), Kind.INVERSE, grid_step=-1.0)
    for step in (math.inf, math.nan):
        with pytest.raises(ValueError, match="grid_step must be positive and finite"):
            TimeChangeSpec(Stable(0.5), Kind.INVERSE, grid_step=step)
    spec = TimeChangeSpec(Stable(0.5), Kind.SUBORDINATOR)
    assert spec.exponent == Stable(0.5)


def test_disjoint_spawns_refuses_overlapping_key_ranges():
    # the inverse-limit suite's spectral and regular streams sit 2^19 keys
    # apart, so they share blocks once a run has more than 2^19 paths
    base = RandomStream(3, 7)
    offsets = [i * 2**20 + q * 2**19 for i in range(3) for q in range(2)]
    keys = samplers.disjoint_spawns(base, offsets, 2**19)
    assert [k.stream_key for k in keys] == [7 + o for o in offsets]
    with pytest.raises(ValueError, match="apart"):
        samplers.disjoint_spawns(base, offsets, 2**19 + 1)
    with pytest.raises(ValueError, match="apart"):
        samplers.disjoint_spawns(base, (0, BLOCK), BLOCK + 1)


# ------------------------------------------------------ scrambled Sobol nets


def test_sobol_net_matches_scipy_unscrambled():
    # scipy walks the points in Gray-code order: its point i is point
    # i ^ (i >> 1) in natural order
    m = samplers.SOBOL_LOG2_MAX
    ours = samplers.sobol_net(m).astype(float) / 2**m
    i = np.arange(2**m)
    theirs = stats.qmc.Sobol(samplers.SOBOL_DIMS, scramble=False).random(2**m)
    assert np.array_equal(ours[:, i ^ (i >> 1)].T, theirs)


@pytest.mark.parametrize("m", [0, 1, 5, 6, 7, 12])
def test_scrambled_nets_keep_their_stratification(m):
    # every randomization of a net of 2^m points puts exactly one point of
    # each coordinate in each interval [k/2^m, (k+1)/2^m)
    reps = 5
    u = samplers.sobol_uniforms(RandomStream(4, 9), samplers.SOBOL_DIMS, reps, m)
    assert u.shape == (samplers.SOBOL_DIMS, reps << m)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    cells = np.sort(np.floor(u * 2**m).reshape(samplers.SOBOL_DIMS, reps, -1), axis=-1)
    assert np.array_equal(cells, np.broadcast_to(np.arange(2**m), cells.shape))


def test_scrambled_nets_are_uniform_and_reproducible():
    # each point is uniform on the cube, so the coordinates have mean 1/2 and
    # variance 1/12 however the nets fall; rows past the checked-in
    # dimensions are Philox uniforms, and a stream gives the same nets twice
    dims, reps, m = samplers.SOBOL_DIMS + 2, 512, 3
    u = samplers.sobol_uniforms(RandomStream(5), dims, reps, m)
    v = samplers.sobol_uniforms(RandomStream(5), dims, reps, m)
    assert np.array_equal(u, v)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    # the mean of 512 independent nets of 8 points has stderr below 0.29/sqrt(512)
    assert np.all(np.abs(u.mean(axis=1) - 0.5) < 5.0 * 0.29 / math.sqrt(reps))
    assert np.all(np.abs(u.var(axis=1) - 1.0 / 12.0) < 0.01)
    assert not np.array_equal(u[:, :8], samplers.sobol_uniforms(RandomStream(6), dims, 1, m))
    with pytest.raises(ValueError, match="nets hold"):
        samplers.sobol_uniforms(RandomStream(5), 2, 1, samplers.SOBOL_LOG2_MAX + 1)


def test_kanter_log_ratio_matches_mpmath_at_both_ends():
    # the log of A(u)^(1-b) from the angle u and its complement v, against
    # 60 digits, for v from 1e-300 up to 1 - 1e-16, where the former
    # sin(pi v) form of the ratio cancelled; an absolute error in the log is
    # the relative error of the ratio
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    v = np.concatenate([np.geomspace(1e-300, 0.5, 120), 1.0 - np.geomspace(0.5, 1.1e-16, 120)[1:]])
    u = 1.0 - v  # exact where v >= 1/2; below it a rounding of u, which sin(pi u) barely feels
    for beta in (2.0**-7, 0.25, 0.5, 0.75, 0.99, 0.999):
        got = samplers._kanter_log_ratio(u.copy(), v.copy(), beta)
        b = mpmath.mpf(beta)
        want = []
        for x in v:
            w = 1 - mpmath.mpf(x)
            want.append(float(b * mpmath.log(mpmath.sin(b * mpmath.pi * w))
                              + (1 - b) * mpmath.log(mpmath.sin((1 - b) * mpmath.pi * w))
                              - mpmath.log(mpmath.sin(mpmath.pi * mpmath.mpf(x)))))
        assert np.max(np.abs(got - np.array(want))) <= 1.3e-13, beta
