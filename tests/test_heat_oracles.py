import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import gamma, ndtr

from subheat import (
    Disk,
    Interval,
    MixedStable,
    RandomStream,
    Stable,
    TemperedStable,
    exact_deficit_disk,
    exact_deficit_interval,
    exact_deficit_rate_disk,
    exact_H_interval,
    exact_Q_interval,
    inverse_reference,
    kanter_angle,
    mc_Q_disk,
    parse_domain,
    subordinate_deficit_series,
)
from subheat.heat_oracles import disk_survival_block, interval_survival_block

UNIT = Interval(0.0, 1.0)


def test_domain_geometry():
    dom = Interval(-1.0, 3.0)
    assert dom.length == 4.0
    assert dom.volume == 4.0
    assert dom.surface == 2.0
    disk = Disk(2.0)
    assert disk.volume == pytest.approx(4.0 * math.pi)
    assert disk.surface == pytest.approx(4.0 * math.pi)


def test_domain_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Disk(0.0)


def test_parse_domain():
    assert parse_domain("interval:0,2.5") == Interval(0.0, 2.5)
    assert parse_domain("disk:1.5") == Disk(1.5)
    for text in ("interval:2,1", "interval:1", "disk:-1", "ball:1", "disk:", "interval:a,b"):
        with pytest.raises(ValueError):
            parse_domain(text)


def test_exact_q_edges():
    assert exact_Q_interval(UNIT, 0.0) == 1.0
    with pytest.raises(ValueError):
        exact_Q_interval(UNIT, -1e-9)
    long = Interval(0.0, 3.0)
    assert exact_Q_interval(long, 1e-300) == pytest.approx(3.0, rel=1e-12)
    assert exact_Q_interval(long, 1e4) < 1e-10


def test_exact_q_against_direct_quadrature():
    # survival probability of Brownian motion (generator Laplacian, variance
    # 2u) in (0, L) integrated over the start point, by direct quadrature of
    # the eigenfunction series evaluated pointwise
    L, u = 1.3, 0.04

    def survival(x):
        k = np.arange(1, 200, 2)
        lam = (k * math.pi / L) ** 2
        coef = 4.0 / (math.pi * k)
        return float(np.sum(coef * np.exp(-lam * u) * np.sin(k * math.pi * x / L)))

    val, _ = integrate.quad(survival, 0.0, L, limit=200)
    assert exact_Q_interval(Interval(0.0, L), u) == pytest.approx(val, rel=1e-10)


def test_exact_q_switch_continuity():
    # the image-sum and eigenseries branches must agree where they meet
    for L in (0.7, 1.0, 2.3):
        dom = Interval(0.0, L)
        u_star = L * L / 10.0
        lo = exact_Q_interval(dom, u_star * (1.0 - 1e-13))
        hi = exact_Q_interval(dom, u_star * (1.0 + 1e-13))
        assert abs(lo - hi) <= 1e-12 * L


def test_exact_q_short_time_expansion():
    # |Omega| - Q(u) = (4/sqrt(pi)) sqrt(u) - O(exp(-L^2/4u)) for small u
    dom = UNIT
    for u in (1e-8, 1e-10):
        deficit = dom.volume - exact_Q_interval(dom, u)
        assert deficit == pytest.approx(4.0 * math.sqrt(u / math.pi), rel=1e-6)


def test_exact_deficit_is_cancellation_free():
    # on (0, 1) the image terms are below 1e-100 of 4 sqrt(u/pi) for u <= 1e-3,
    # so the deficit must match it to rounding; 1 - Q(u) is rounding noise
    # there once u is below about 1e-30
    u = np.geomspace(1e-300, 1e-3, 400)
    rel = exact_deficit_interval(UNIT, u) / (4.0 * np.sqrt(u / math.pi)) - 1.0
    assert np.max(np.abs(rel)) <= 1e-15
    assert exact_deficit_interval(UNIT, 0.0) == 0.0
    with pytest.raises(ValueError):
        exact_deficit_interval(UNIT, -1e-9)


@pytest.mark.parametrize(
    "fn",
    [
        lambda u: kanter_angle(u, 0.3),
        lambda u: exact_H_interval(UNIT, u),
        lambda u: exact_deficit_interval(UNIT, u),
    ],
    ids=["kanter_angle", "exact_H_interval", "exact_deficit_interval"],
)
def test_oracles_leave_inputs_alone_and_take_scalars(fn):
    u = np.concatenate([np.geomspace(1e-9, 0.099, 50), np.linspace(0.1, 0.9, 50)])
    before = u.copy()
    vec = fn(u)
    assert np.array_equal(u, before)
    for x, v in zip(u[::7], vec[::7]):
        got = fn(float(x))
        assert np.ndim(got) == 0 and got == v


def test_exact_h_closed_form_against_mc():
    # regular heat content complement: uniform start, free Brownian endpoint
    L, u = 1.0, 0.07
    stream = RandomStream(101)
    x = stream.uniforms(400_000) * L
    z = stream.normals(400_000) * math.sqrt(2.0 * u)
    hit = ((x + z < 0.0) | (x + z > L)).astype(float)
    m = float(hit.mean()) * L
    se = float(hit.std(ddof=1) / math.sqrt(len(hit))) * L
    assert abs(exact_H_interval(Interval(0.0, L), u) - m) <= 4.0 * se


def test_exact_h_analytic_properties():
    dom = Interval(0.0, 2.0)
    assert exact_H_interval(dom, 0.0) == 0.0
    us = np.geomspace(1e-6, 1e3, 40)
    vals = np.array([exact_H_interval(dom, float(u)) for u in us])
    assert np.all(np.diff(vals) > 0.0)
    assert vals[-1] < dom.volume
    assert exact_H_interval(dom, 1e8) == pytest.approx(dom.volume, rel=1e-3)
    # small-u expansion H(u) = (2/sqrt(pi)) sqrt(u) + exponentially small
    assert exact_H_interval(dom, 1e-9) == pytest.approx(
        2.0 * math.sqrt(1e-9 / math.pi), rel=1e-8
    )


def test_exact_h_matches_mpmath_without_cancellation():
    # H = 2 sigma (a Phibar(a) + phi(0) - phi(a)) at 80 digits, from u far
    # below L^2 to u far above it, where phi(0) - phi(a) cancels in doubles
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 80

    def exact(L, u):
        sig = mpmath.sqrt(2 * mpmath.mpf(u))
        a = mpmath.mpf(L) / sig
        return 2 * sig * (a * mpmath.ncdf(-a) - mpmath.npdf(0) * mpmath.expm1(-a * a / 2))

    for u in np.geomspace(1e-300, 1e300, 121):
        got = exact_H_interval(UNIT, float(u))
        assert abs(got - float(exact(1, float(u)))) <= 1e-15 * got
    assert exact_H_interval(UNIT, 1e32) == pytest.approx(1.0, rel=2e-16)
    for u in (1e34, 1e40, 1e300):
        assert exact_H_interval(UNIT, u) == 1.0
    # 2u overflows past 2^1023
    assert exact_H_interval(UNIT, 1e308) == exact_H_interval(UNIT, math.inf) == 1.0
    assert exact_H_interval(Interval(0.0, 1e-50), 1e-4) == pytest.approx(1e-50, rel=1e-15)


def _unpruned_deficit(L, u):
    # the image and eigenmode forms with every term summed
    out = np.zeros_like(u)
    sqrt_2pi = np.sqrt(2.0 * np.pi)

    def r(x):
        return np.exp(-0.5 * x * x) / sqrt_2pi - x * ndtr(-x)

    lo = (u > 0.0) & (u < L * L / 10.0)
    sig = np.sqrt(2.0 * u[lo])
    a = L / sig
    out[lo] = sig * (4.0 / sqrt_2pi - 8.0 * (r(a) - r(2.0 * a) + r(3.0 * a) - r(4.0 * a)))
    hi = u >= L * L / 10.0
    k = np.array([1.0, 3.0, 5.0, 7.0])[:, None]
    out[hi] = L - (8.0 * L / (k * np.pi) ** 2 * np.exp(-((k * np.pi / L) ** 2) * u[hi][None, :])).sum(axis=0)
    return out


def _unpruned_H(L, u):
    # the closed form 2 sigma (a Phibar(a) + phi(0) - phi(a)) at every a,
    # with -phi(0) expm1(-a^2/2) for phi(0) - phi(a)
    sqrt_2pi = np.sqrt(2.0 * np.pi)
    flat = u >= 2.0**1023
    out = np.where(flat, L, 0.0)
    pos = (u > 0.0) & ~flat
    sig = np.sqrt(2.0 * u[pos])
    a = L / sig
    out[pos] = (a * ndtr(-a) - np.expm1(-0.5 * a * a) / sqrt_2pi) * (2.0 * sig)
    return out


@pytest.mark.parametrize("L", [1e-3, 1.0, 37.0])
def test_pruned_interval_oracles_are_bitwise_the_full_sums(L):
    # past a = L/sqrt(2u) = 9 the image and Gaussian-tail terms round away,
    # and past (pi/L)^2 u = 700 the eigenmodes are far below the rounding of
    # L less their sum, so leaving them out changes no bit
    dom = Interval(0.0, L)
    near_cut = L * L / (2.0 * np.concatenate([np.linspace(8.0, 10.0, 30_001), np.linspace(38.0, 41.0, 3_001)]) ** 2)
    special = [0.0, 1e-300, L * L / 10.0, 700.0 * (L / np.pi) ** 2, 760.0 * (L / np.pi) ** 2, 2.0**1023, np.inf, np.nan]
    u = np.concatenate([np.geomspace(1e-320, 1e308, 200_001), near_cut, special])
    with np.errstate(over="ignore", invalid="ignore"):
        want_deficit, want_H = _unpruned_deficit(L, u), _unpruned_H(L, u)
    with np.errstate(over="raise", invalid="raise"):
        got_deficit, got_H = exact_deficit_interval(dom, u), exact_H_interval(dom, u)
    assert np.array_equal(got_deficit.view(np.uint64), want_deficit.view(np.uint64))
    assert np.array_equal(got_H.view(np.uint64), want_H.view(np.uint64))


def test_exact_h_vectorized_matches_scalar():
    us = np.array([0.0, 1e-6, 0.03, 2.0])
    vec = exact_H_interval(UNIT, us)
    for u, v in zip(us, vec):
        assert exact_H_interval(UNIT, float(u)) == v


@pytest.mark.parametrize(
    "exp,t",
    [
        (Stable(0.5), 1e-3),
        (Stable(0.75), 1e-4),
        (TemperedStable(0.5, 1.0), 1e-3),
        (MixedStable(((0.25, 1.0), (0.5, 1.0))), 1e-3),
    ],
)
def test_deficit_series_tail_bound_and_monotone_truncation(exp, t):
    val_a, tail_a = subordinate_deficit_series(UNIT, exp, t, kmax=2_000_001)
    val_b, tail_b = subordinate_deficit_series(UNIT, exp, t, kmax=20_000_001)
    assert tail_b < tail_a
    assert val_a <= val_b <= val_a + tail_a


@pytest.mark.parametrize("kmax", [2_000_000, 2_000_001])
def test_deficit_series_tail_bound_holds_when_saturated(kmax):
    # at t = 1e3 every term of the series is saturated, so the truncated sum
    # plus its tail bound must reach the full deficit L = 1 for odd kmax too
    value, tail = subordinate_deficit_series(UNIT, Stable(0.5), 1e3, kmax=kmax)
    assert value + tail >= UNIT.volume


def test_deficit_series_against_exact_half_stable_clock():
    # for the 1/2-stable clock D_t = t^2/(2 Z^2), average the exact interval
    # deficit over the clock law by quadrature; fully independent of the
    # eigen-series route
    t = 1e-3
    dom = UNIT

    def integrand(z):
        u = t * t / (2.0 * z * z)
        return (
            2.0
            * (dom.volume - exact_Q_interval(dom, u))
            * math.exp(-z * z / 2.0)
            / math.sqrt(2.0 * math.pi)
        )

    val, _ = integrate.quad(integrand, 1e-12, 40.0, limit=400, points=[1e-4, 1e-2, 1.0])
    series, tail = subordinate_deficit_series(dom, Stable(0.5), t, kmax=60_000_000)
    assert series == pytest.approx(val, rel=3e-6)
    assert tail < 3e-6 * series


# ------------------------------------------------------------- disk oracle

DISK = Disk(1.0)


def _disk_series_mpmath(mpmath, head=30):
    """D(s) = sum over the zeros j_n of J0 of 4 pi (1 - e^(-j_n^2 s))/j_n^2:
    mpmath's zeros for n <= head, McMahon's expansion beyond, whose first
    omitted term is below 1e-20 relative there, summed by Euler-Maclaurin."""
    zeros = [mpmath.besseljzero(0, n) for n in range(1, head + 1)]

    def mcmahon(x):
        b = (x - mpmath.mpf(1) / 4) * mpmath.pi
        c = 8 * b
        return b + 1 / c - mpmath.mpf(124) / (3 * c**3) + mpmath.mpf(120928) / (15 * c**5) - (
            mpmath.mpf(401743168) / (105 * c**7)
        )

    def deficit(s):
        s = mpmath.mpf(s)

        def term(j):
            return 4 * mpmath.pi * -mpmath.expm1(-j * j * s) / (j * j)

        tail = mpmath.sumem(lambda x: term(mcmahon(x)), [head + 1, mpmath.inf])
        return mpmath.fsum(term(j) for j in zeros) + tail

    return deficit


def test_disk_deficit_matches_the_j0_series():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 25
    series = _disk_series_mpmath(mpmath)
    for s in np.geomspace(1e-12, 10.0, 27):
        want = series(float(s))
        assert abs(exact_deficit_disk(DISK, float(s)) / want - 1) <= 1e-13, s
    vec = exact_deficit_disk(DISK, np.geomspace(1e-12, 10.0, 27))
    assert [exact_deficit_disk(DISK, float(s)) for s in np.geomspace(1e-12, 10.0, 27)] == list(vec)
    assert exact_deficit_disk(DISK, 0.0) == 0.0
    assert exact_deficit_disk(DISK, 1e300) == math.pi
    with pytest.raises(ValueError):
        exact_deficit_disk(DISK, -1e-9)


def test_disk_deficit_short_time_form_to_full_precision():
    # 4 sqrt(pi s) - pi s, the flat-boundary term and the curvature term;
    # the next term is below 1e-20 relative from s = 1e-20 down
    for s in np.geomspace(1e-300, 1e-20, 57):
        s = float(s)
        assert exact_deficit_disk(DISK, s) == pytest.approx(4.0 * math.sqrt(math.pi * s) - math.pi * s, rel=3e-16)


def test_disk_deficit_continuous_at_the_switch():
    # the expansion and the modes meet at s = 0.01, each side within a few
    # ulps of the series, so the jump is the slope times the gap of 2e-15
    lo = exact_deficit_disk(DISK, 0.01 * (1.0 - 1e-13))
    hi = exact_deficit_disk(DISK, 0.01 * (1.0 + 1e-13))
    slope = exact_deficit_rate_disk(DISK, 0.01)
    assert abs(hi - lo - slope * 0.01 * 2e-13) <= 4e-15
    rate_lo = exact_deficit_rate_disk(DISK, 0.01 * (1.0 - 1e-13))
    rate_hi = exact_deficit_rate_disk(DISK, 0.01 * (1.0 + 1e-13))
    curvature = (exact_deficit_rate_disk(DISK, 0.0101) - exact_deficit_rate_disk(DISK, 0.0099)) / 2e-4
    assert abs(rate_hi - rate_lo - curvature * 0.01 * 2e-13) <= 1e-14 * rate_hi


@pytest.mark.parametrize("R", [1e-3, 1.0, 1e3])
def test_disk_deficit_scales_with_r_squared(R):
    s = np.geomspace(1e-12, 10.0, 40)
    got = exact_deficit_disk(Disk(R), s * R * R)
    assert np.allclose(got, R * R * exact_deficit_disk(DISK, s), rtol=1e-14, atol=0.0)
    rate = exact_deficit_rate_disk(Disk(R), s * R * R)
    assert np.allclose(rate, exact_deficit_rate_disk(DISK, s), rtol=1e-14, atol=0.0)


# up to s = 1, past which the central difference of D, close to pi, loses
# more digits than the test allows
@pytest.mark.parametrize("s", [1e-10, 1e-6, 1e-3, 0.00999, 0.01001, 0.1, 1.0])
def test_disk_rate_is_the_derivative_of_the_deficit(s):
    h = 1e-5 * s
    diff = (exact_deficit_disk(DISK, s + h) - exact_deficit_disk(DISK, s - h)) / (2.0 * h)
    assert exact_deficit_rate_disk(DISK, s) == pytest.approx(diff, rel=1e-6)
    assert exact_deficit_rate_disk(DISK, np.array([s]))[0] == exact_deficit_rate_disk(DISK, s)
    assert exact_deficit_rate_disk(DISK, 0.0) == math.inf


def test_interval_walker_matches_exact_q():
    # the bridge-corrected killed walk is the only path machinery shared with
    # the disk, so pin it against the closed form on the interval
    L, u = 1.0, 0.02
    n = 131_072
    surv = interval_survival_block(L, u, RandomStream(7), strat_index=0, strat_total=n, n=n, n_steps=128)
    q_mc = L * float(np.mean(surv))
    q_exact = exact_Q_interval(Interval(0.0, L), u)
    se = L * float(np.std(surv, ddof=1) / math.sqrt(n))
    assert abs(q_mc - q_exact) <= max(4.0 * se, 0.005 * q_exact)


def test_disk_walker_flat_limit_and_curvature():
    # for small u the disk deficit is |boundary| (2/sqrt(pi)) sqrt(u) minus a
    # curvature correction pi u + o(u); the flat term alone must overshoot
    R, u = 1.0, 1e-3
    n = 200_000
    disk = Disk(R)
    surv = disk_survival_block(R, u, RandomStream(19), strat_index=0, strat_total=n, n=n, n_steps=96)
    deficit = disk.volume * (1.0 - float(np.mean(surv)))
    se = disk.volume * float(np.std(surv, ddof=1) / math.sqrt(n))
    flat = disk.surface * 2.0 * math.sqrt(u) / math.sqrt(math.pi)
    corrected = flat - math.pi * u
    assert abs(deficit - corrected) <= max(5.0 * se, 0.01 * corrected)
    assert deficit < flat


def test_survival_blocks_are_stratified_and_deterministic():
    # strat_index is the starting global path index within strat_total paths
    a = disk_survival_block(1.0, 0.01, RandomStream(3), strat_index=8192, strat_total=32768, n=4096)
    b = disk_survival_block(1.0, 0.01, RandomStream(3), strat_index=8192, strat_total=32768, n=4096)
    assert np.array_equal(a, b)
    c = disk_survival_block(1.0, 0.01, RandomStream(3), strat_index=12288, strat_total=32768, n=4096)
    assert not np.array_equal(a, c)


def test_disk_survival_accepts_per_path_clocks():
    u = np.full(2048, 0.01)
    a = disk_survival_block(1.0, u, RandomStream(5), strat_index=0, strat_total=2048, n=2048)
    b = disk_survival_block(1.0, 0.01, RandomStream(5), strat_index=0, strat_total=2048, n=2048)
    assert np.allclose(a, b)


@pytest.mark.parametrize(
    "walk,digest",
    [
        (lambda s: disk_survival_block(1.0, 0.01, s, strat_index=0, strat_total=4096, n=4096),
         "f85ed38d2d8665a795bc48c1e465401b787e223381f8456fb8b1600658b53832"),
        (lambda s: disk_survival_block(
            2.0, np.geomspace(1e-4, 1.0, 3000), s, strat_index=1000, strat_total=8192, n=3000, n_steps=96),
         "9a07ef23b889418f319c7a8a905ee39de4613fd3835bbb9dcf835478de73f41c"),
        (lambda s: disk_survival_block(0.5, 0.002, s, strat_index=12288, strat_total=32768, n=4096, n_steps=128),
         "35acb62bd82d14a4f437270be630a4d245ea88b8347854b604fa8a1ecd0f2c5b"),
        (lambda s: disk_survival_block(1.0, 5.0, s, strat_index=0, strat_total=2048, n=2048),
         "a1f52fe61fe5fdd577d1314029f6ff16c6db3addd82758fea9d60ed89e7d548a"),
        (lambda s: interval_survival_block(1.0, 0.02, s, strat_index=0, strat_total=4096, n=4096),
         "00902fbd8d5c914386a6be59048797bebb375f5cad738e4c7e5b751382454af4"),
        (lambda s: interval_survival_block(
            3.0, np.geomspace(1e-4, 1.0, 3000), s, strat_index=1000, strat_total=8192, n=3000, n_steps=96),
         "c324226793562d3ab8a4cc201b7e313015c23376c5704319a8d0b99d8e0cae86"),
        (lambda s: interval_survival_block(1.0, 0.02, s, strat_index=12288, strat_total=32768, n=4096, n_steps=128),
         "6ce1fa6ca0d83a9f8d3606eb0179e11dbc78bc17c6dd21503bbfbd759f3bc597"),
        (lambda s: interval_survival_block(1.0, 5.0, s, strat_index=0, strat_total=2048, n=2048),
         "3e6fe7ab2a325958b01832b30cf02cfd42eb10e83b459989c828659f3f5ebbc2"),
    ],
    ids=[f"{dom}-{case}" for dom in ("disk", "interval") for case in ("scalar-64", "per-path-96", "strat-128", "early-exit")],
)
def test_bridge_walks_keep_their_bits(walk, digest):
    # sha256 of the survival probabilities and of the next draws of the
    # stream, which pin how many steps the walk drew: at u = 5 every path is
    # killed within 24 of the 64 steps, and the walk stops there
    stream = RandomStream(11)
    surv = walk(stream)
    assert hashlib.sha256(surv.tobytes() + stream.uniforms(4).tobytes()).hexdigest() == digest


def test_disk_cross_check_keeps_its_bits():
    est = mc_Q_disk(Disk(1.0), 1e-3, 65536, RandomStream(1, 0))
    assert (est.value, est.stderr) == (2.9188279593741773, 0.003113252344219308)


def _inverse_mpmath(mpmath, exp, dom, t, quantity):
    """E f(E_t) by mpmath's Talbot inversion of (phi(s)/s) f^(phi(s)), with
    f^ written out in mpmath from its closed form."""

    def transform(s):
        p = sum(w * s**b for b, w in exp.components)
        if isinstance(dom, Disk):
            z = dom.radius * mpmath.sqrt(p)
            fhat = 2 * mpmath.pi * dom.radius * mpmath.besseli(1, z) / mpmath.besseli(0, z)
        elif quantity == "spectral":
            fhat = 2 * mpmath.tanh(dom.length * mpmath.sqrt(p) / 2)
        else:
            fhat = -mpmath.expm1(-dom.length * mpmath.sqrt(p))
        return fhat / (s * mpmath.sqrt(p))

    return float(mpmath.invertlaplace(transform, t, method="talbot"))


@pytest.mark.parametrize("t", [1e-8, 1e-3, 1.0])
@pytest.mark.parametrize("b", [0.25, 0.5, 0.75])
def test_inverse_reference_meets_mpmath(b, t):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for dom, quantity in ((UNIT, "spectral"), (UNIT, "regular"), (Disk(1.0), "spectral")):
        got = inverse_reference(Stable(b), dom, t, quantity)
        want = _inverse_mpmath(mpmath, Stable(b), dom, t, quantity)
        assert got == pytest.approx(want, rel=1e-11, abs=0.0), (dom, quantity)


def test_inverse_reference_meets_mpmath_for_a_mixed_clock():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    exp = MixedStable(((0.25, 1.0), (0.5, 1.0)))
    for dom in (UNIT, Disk(2.0)):
        got = inverse_reference(exp, dom, 1e-3)
        assert got == pytest.approx(_inverse_mpmath(mpmath, exp, dom, 1e-3, "spectral"), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("t", [1e-12, 1e-300])
@pytest.mark.parametrize("b", [0.25, 0.5, 0.75])
def test_inverse_reference_meets_the_flat_boundary_law_at_depth(b, t):
    # deep in small time the interval loses 4 sqrt(u/pi) and H half that, and
    # E E_t^(1/2) = t^(b/2) Gamma(3/2)/Gamma(1 + b/2) under phi(s) = s^b
    flat = 2.0 * t ** (b / 2.0) / gamma(1.0 + b / 2.0)
    assert inverse_reference(Stable(b), UNIT, t) == pytest.approx(flat, rel=1e-12, abs=0.0)
    assert inverse_reference(Stable(b), UNIT, t, "regular") == pytest.approx(flat / 2.0, rel=1e-12, abs=0.0)


def test_inverse_reference_refuses_what_it_cannot_invert():
    with pytest.raises(ValueError, match="untempered"):
        inverse_reference(TemperedStable(0.5, 1.0), UNIT, 1e-3)
    with pytest.raises(ValueError, match="positive and finite"):
        inverse_reference(Stable(0.5), UNIT, 0.0)
    with pytest.raises(ValueError, match="regular"):
        inverse_reference(Stable(0.5), Disk(1.0), 1e-3, "regular")


_BETAS = st.floats(1e-3, 0.999)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    comps=st.lists(
        st.tuples(_BETAS, st.floats(-2.0, 2.0).map(lambda x: 10.0**x)), min_size=1, max_size=3, unique_by=lambda c: c[0]
    ),
    size=st.floats(-2.0, 2.0).map(lambda x: 10.0**x),
    disk=st.booleans(),
    quantity=st.sampled_from(["spectral", "regular"]),
    t=st.floats(-12.0, 1.0).map(lambda x: 10.0**x),
)
def test_inverse_reference_is_finite_over_the_grammar(comps, size, disk, quantity, t):
    # the indexes, weights, sizes and times of the CLI grammar's property test
    dom = Disk(size) if disk else Interval(0.0, size)
    value = inverse_reference(MixedStable(tuple(sorted(comps))), dom, t, "spectral" if disk else quantity)
    assert math.isfinite(value)
    assert -1e-9 * dom.volume <= value <= (1.0 + 1e-9) * dom.volume
