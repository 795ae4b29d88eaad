import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma as gamma_fn

from subheat import (
    Disk,
    Interval,
    Kind,
    MixedStable,
    RandomStream,
    Stable,
    TemperedStable,
    UnsupportedConfigurationError,
    expansion,
    fit_rate,
    inverse_moment,
    lowindex_constant,
    predict_regular,
    predict_spectral,
    stable_moment,
)
from subheat.asymptotics import HIGHINDEX_LIMIT, INVERSE_LIMIT, small_time_rate
from subheat.heat_oracles import REGULAR, SPECTRAL
from subheat.samplers import sample_stable

UNIT = Interval(0.0, 1.0)


# ---------------------------------------------------------------- moments


def test_stable_moment_gamma_ratio():
    # E[S_1^g] = Gamma(1 - g/b) / Gamma(1 - g) for g < b
    for b, g in [(0.75, 0.5), (0.5, 0.3), (0.25, 0.1), (0.9, -1.0)]:
        assert stable_moment(b, g) == pytest.approx(
            gamma_fn(1.0 - g / b) / gamma_fn(1.0 - g), rel=1e-14
        )
    assert stable_moment(0.75, 0.5) == pytest.approx(1.5114292162468004, rel=1e-12)
    assert stable_moment(0.5, 0.0) == 1.0


def test_stable_moment_fractional_identity_quadrature():
    # x^(1/2) = (1/(2 Gamma(1/2))) int_0^inf s^(-3/2) (1 - e^(-s x)) ds applied
    # under the expectation gives an oracle independent of the Gamma ratio
    for b in (0.6, 0.75, 0.9):
        def head(s, b=b):
            return s**-1.5 * -math.expm1(-(s**b))

        def tail(y, b=b):
            # s = 1/y^2 maps [1, inf) to (0, 1] and absorbs the s^(-3/2) decay
            return 2.0 * -math.expm1(-(y ** (-2.0 * b)))

        val = integrate.quad(head, 0.0, 1.0, limit=400)[0]
        val += integrate.quad(tail, 0.0, 1.0, limit=400)[0]
        val /= 2.0 * math.sqrt(math.pi)
        assert stable_moment(b, 0.5) == pytest.approx(val, rel=1e-9)


def test_stable_moment_rejects_orders_at_or_above_index():
    with pytest.raises(ValueError):
        stable_moment(0.5, 0.5)
    with pytest.raises(ValueError):
        stable_moment(0.25, 0.7)
    with pytest.raises(ValueError):
        stable_moment(1.2, 0.1)


def test_inverse_moment_values():
    assert inverse_moment(0.5, 1.0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)
    assert inverse_moment(0.5, 0.5) == pytest.approx(
        gamma_fn(1.5) / gamma_fn(1.25), rel=1e-14
    )
    assert inverse_moment(0.5, 0.5) == pytest.approx(0.97773, rel=1e-4)
    with pytest.raises(ValueError):
        inverse_moment(0.5, 0.0)
    with pytest.raises(ValueError):
        inverse_moment(1.0, 1.0)


def test_inverse_moment_matches_exact_sampler():
    # E_1 for the stable clock is S_1^(-beta) in law
    for b, p in [(0.5, 1.0), (0.5, 2.0), (0.25, 1.0), (0.75, 0.5)]:
        s = sample_stable(b, 1.0, RandomStream(7), 400_000)
        draws = s**-b if p == 1.0 else (s**-b) ** p
        m = float(draws.mean())
        se = float(draws.std(ddof=1) / math.sqrt(draws.size))
        assert abs(m - inverse_moment(b, p)) <= 4.0 * se


# ------------------------------------------------------- running maximum


def _running_max_constant(limit, beta):
    # the unit interval's H(u) is 2 sqrt(u/pi) at small u, the mean running
    # maximum over [0, u], so its regular constant is the mean running
    # maximum over S_1 (high index) or E_1 (inverse clock)
    return limit.constant(Stable(beta), UNIT, REGULAR)


def test_running_max_constant_closed_forms():
    assert _running_max_constant(HIGHINDEX_LIMIT, 0.75) == pytest.approx(
        stable_moment(0.75, 0.5) * 2.0 / math.sqrt(math.pi), rel=1e-14
    )
    assert _running_max_constant(INVERSE_LIMIT, 0.5) == pytest.approx(
        1.0 / gamma_fn(1.25), rel=1e-14
    )
    assert _running_max_constant(INVERSE_LIMIT, 0.5) == pytest.approx(1.10326, rel=1e-4)


def test_running_max_constant_validation():
    # the order-1/2 moment of the stable horizon diverges once beta <= 1/2
    with pytest.raises(ValueError):
        _running_max_constant(HIGHINDEX_LIMIT, 0.5)
    with pytest.raises(ValueError):
        _running_max_constant(INVERSE_LIMIT, 1.0)
    with pytest.raises(ValueError):
        small_time_rate(Stable(0.5), "sideways")


def test_running_max_inverse_mc_cross_check():
    # sup of a variance-2u Brownian motion over [0, T] is |N(0, 2T)| by
    # reflection; with T = E_1 = S_1^(-beta) every moment is finite, so the
    # plain sample mean carries an honest error bar
    for b in (0.5, 0.75):
        stream = RandomStream(13)
        s = sample_stable(b, 1.0, stream, 300_000)
        z = stream.spawn(1).normals(300_000)
        draws = np.sqrt(2.0 * s**-b) * np.abs(z)
        m = float(draws.mean())
        se = float(draws.std(ddof=1) / math.sqrt(draws.size))
        assert abs(m - _running_max_constant(INVERSE_LIMIT, b)) <= 4.0 * se


def test_running_max_stable_mc_cross_check():
    # the horizon S_1 makes the sup heavy-tailed (no variance at order 1/2),
    # so the sample mean converges slowly from below; fixed seed, loose band
    b = 0.75
    stream = RandomStream(41)
    s = sample_stable(b, 1.0, stream, 1_000_000)
    z = stream.spawn(1).normals(1_000_000)
    draws = np.sqrt(2.0 * s) * np.abs(z)
    m = float(draws.mean())
    assert m == pytest.approx(_running_max_constant(HIGHINDEX_LIMIT, b), rel=0.035)


# ------------------------------------------------------------ predictions


def test_highindex_prediction_constants():
    spec = predict_spectral(Stable(0.75), UNIT, Kind.SUBORDINATOR)
    reg = predict_regular(Stable(0.75), UNIT, Kind.SUBORDINATOR)
    want = stable_moment(0.75, 0.5) * 2.0 * UNIT.surface / math.sqrt(math.pi)
    assert spec.constant == pytest.approx(want, rel=1e-14)
    assert spec.constant == pytest.approx(3.4109304803047769, rel=1e-12)
    assert reg.constant == pytest.approx(0.5 * want, rel=1e-14)
    assert spec.theorem_tag == "highindex-limit"
    assert reg.theorem_tag == "highindex-limit-regular"
    # the rate reduces to t^(1/(2 beta)) for a pure stable exponent
    assert spec.rate(1e-6) == pytest.approx(1e-4, rel=1e-10)
    assert spec.rate(np.array(1e-6)) == spec.rate(1e-6)
    assert spec.rate.label == "t^(0.666667)"


def test_critical_prediction_constants():
    spec = predict_spectral(Stable(0.5), UNIT, Kind.SUBORDINATOR)
    reg = predict_regular(Stable(0.5), UNIT, Kind.SUBORDINATOR)
    assert spec.constant == pytest.approx(4.0 / math.pi, rel=1e-14)
    assert reg.constant == pytest.approx(2.0 / math.pi, rel=1e-14)
    assert spec.theorem_tag == "critical-limit"
    assert spec.rate(1e-4) == pytest.approx(1e-4 * math.log(1e4), rel=1e-12)
    assert spec.rate.label == "t*log(1/t)"


def test_mixed_critical_constant_scales_with_leading_weight():
    base = predict_spectral(
        MixedStable(((0.25, 1.0), (0.5, 1.0))), UNIT, Kind.SUBORDINATOR
    )
    doubled = predict_spectral(
        MixedStable(((0.25, 1.0), (0.5, 2.0))), UNIT, Kind.SUBORDINATOR
    )
    assert base.constant == pytest.approx(4.0 / math.pi, rel=1e-14)
    assert doubled.constant == pytest.approx(8.0 / math.pi, rel=1e-14)


def test_inverse_prediction_constants():
    spec = predict_spectral(Stable(0.5), UNIT, Kind.INVERSE)
    reg = predict_regular(Stable(0.5), UNIT, Kind.INVERSE)
    assert spec.constant == pytest.approx(2.2065253026416745, rel=1e-12)
    assert reg.constant == pytest.approx(0.5 * spec.constant, rel=1e-14)
    assert spec.theorem_tag == "inverse-limit"
    assert spec.rate(1e-6) == pytest.approx(1e-6**0.25, rel=1e-10)
    assert spec.rate.label == "t^(0.25)"


def test_inverse_prediction_universality_across_exponents():
    # the constant depends only on the leading index; the rate carries the
    # exponent-specific correction through phi itself
    pure = predict_spectral(Stable(0.5), UNIT, Kind.INVERSE)
    temp = predict_spectral(TemperedStable(0.5, 1.0), UNIT, Kind.INVERSE)
    assert temp.constant == pytest.approx(pure.constant, rel=1e-14)
    assert temp.rate.label == "[phi(1/t)]^(-1/2)"
    assert temp.rate(1e-6) == pytest.approx(
        ((1e6 + 1.0) ** 0.5 - 1.0) ** -0.5, rel=1e-12
    )


def test_spectral_is_twice_regular_outside_lowindex():
    cases = [
        (Stable(0.75), Kind.SUBORDINATOR),
        (Stable(0.5), Kind.SUBORDINATOR),
        (MixedStable(((0.25, 1.0), (0.5, 1.0))), Kind.SUBORDINATOR),
        (Stable(0.5), Kind.INVERSE),
        (TemperedStable(0.5, 1.0), Kind.INVERSE),
        (Stable(0.25), Kind.INVERSE),
    ]
    for exp, kind in cases:
        s = predict_spectral(exp, UNIT, kind)
        r = predict_regular(exp, UNIT, kind)
        assert s.constant == pytest.approx(2.0 * r.constant, rel=1e-14)


def test_disk_constants_scale_with_surface():
    i_spec = predict_spectral(Stable(0.75), UNIT, Kind.SUBORDINATOR)
    d_spec = predict_spectral(Stable(0.75), Disk(1.0), Kind.SUBORDINATOR)
    assert d_spec.constant == pytest.approx(math.pi * i_spec.constant, rel=1e-14)
    d_inv = predict_spectral(Stable(0.5), Disk(1.0), Kind.INVERSE)
    assert d_inv.constant == pytest.approx(2.0 * math.pi / gamma_fn(1.25), rel=1e-14)
    assert d_inv.constant == pytest.approx(6.932, rel=1e-3)


def test_tempered_critical_subordinator_unsupported():
    with pytest.raises(UnsupportedConfigurationError):
        predict_spectral(TemperedStable(0.5, 1.0), UNIT, Kind.SUBORDINATOR)
    with pytest.raises(UnsupportedConfigurationError):
        predict_regular(TemperedStable(0.5, 1.0), UNIT, Kind.SUBORDINATOR)


def test_disk_lowindex_unsupported():
    with pytest.raises(UnsupportedConfigurationError):
        predict_spectral(Stable(0.25), Disk(1.0), Kind.SUBORDINATOR)


# --------------------------------------------------- low-index quadrature


def _interval_perimeter_closed_form(beta, L):
    # relative perimeter of (0, L) under the subordinate process, whose jump
    # density is the beta 4^beta Gamma(beta + 1/2) / (sqrt(pi) Gamma(1 - beta))
    # multiple of |z|^(-1-2 beta)
    c = beta * 4.0**beta * gamma_fn(beta + 0.5) / (math.sqrt(math.pi) * gamma_fn(1.0 - beta))
    return c * L ** (1.0 - 2.0 * beta) / (beta * (1.0 - 2.0 * beta))


@pytest.mark.parametrize("beta", [0.2, 0.25, 0.4])
@pytest.mark.parametrize("L", [1.0, 1.7])
def test_lowindex_regular_constant_is_the_perimeter(beta, L):
    dom = Interval(0.0, L)
    got = lowindex_constant(Stable(beta), dom, REGULAR)
    assert got == pytest.approx(_interval_perimeter_closed_form(beta, L), rel=1e-6)


def test_lowindex_spectral_frozen_value():
    assert lowindex_constant(Stable(0.25), UNIT, SPECTRAL) == pytest.approx(
        2.4262380917451174, rel=1e-9
    )
    pred = predict_spectral(Stable(0.25), UNIT, Kind.SUBORDINATOR)
    assert pred.constant == pytest.approx(2.4262380917451174, rel=1e-9)
    assert pred.theorem_tag == "lowindex-limit"
    assert pred.rate.label == "t"
    assert pred.rate(3e-7) == 3e-7


def test_lowindex_constant_additive_over_mixture_components():
    exp = MixedStable(((0.2, 0.5), (0.35, 2.0)))
    for quantity in (SPECTRAL, REGULAR):
        whole = lowindex_constant(exp, UNIT, quantity)
        parts = 0.5 * lowindex_constant(Stable(0.2), UNIT, quantity) + 2.0 * lowindex_constant(
            Stable(0.35), UNIT, quantity
        )
        assert whole == pytest.approx(parts, rel=1e-8)


def test_lowindex_constant_quadrature_tolerance_stability():
    loose = lowindex_constant(Stable(0.25), UNIT, SPECTRAL, epsrel=1e-8)
    tight = lowindex_constant(Stable(0.25), UNIT, SPECTRAL, epsrel=1e-11)
    assert loose == pytest.approx(tight, rel=1e-6)


def test_lowindex_spectral_exceeds_regular():
    # the spectral deficit counts paths that left and returned; the regular
    # content only counts mass sitting outside, so the spectral constant is
    # strictly bigger (and not by the factor two of the other regimes)
    s = lowindex_constant(Stable(0.25), UNIT, SPECTRAL)
    r = lowindex_constant(Stable(0.25), UNIT, REGULAR)
    assert s > r
    assert s / r < 2.0


# ---------------------------------------------------------------- expansion


def test_expansion_first_term_matches_inverse_constant():
    # pushing the flat-boundary coefficient 2|dOmega|/sqrt(pi) through the
    # clock reproduces the inverse-limit constant |dOmega|/Gamma(b/2+1)
    for b in np.linspace(0.05, 0.95, 19):
        (c1, e1), = expansion(float(b), [4.0 / math.sqrt(math.pi)])
        want = 2.0 / gamma_fn(b / 2.0 + 1.0)
        assert abs(c1 - want) <= 1e-12 * want
        assert e1 == pytest.approx(b / 2.0, abs=1e-15)


def test_expansion_general_terms():
    b = 0.4
    out = expansion(b, [1.0, -2.0, 0.5])
    assert [e for _, e in out] == pytest.approx([0.2, 0.4, 0.6], abs=1e-15)
    for n, (c, _) in enumerate(out, start=1):
        want = [1.0, -2.0, 0.5][n - 1] * gamma_fn(1.0 + n / 2.0) / gamma_fn(1.0 + n * b / 2.0)
        assert c == pytest.approx(want, rel=1e-14)


def test_expansion_validation():
    with pytest.raises(ValueError):
        expansion(1.0, [1.0])
    with pytest.raises(ValueError):
        expansion(0.5, [])


# ----------------------------------------------------------------- fitting


def test_fit_rate_recovers_exact_log_corrected_ladder():
    pred = predict_spectral(Stable(0.5), UNIT, Kind.SUBORDINATOR)
    ts = [1e-4, 1e-6, 1e-8]
    samples = [
        (t, pred.constant * pred.rate(t) * (1.0 + 0.7 / math.log(1.0 / t)), 1e-6)
        for t in ts
    ]
    report = fit_rate(samples, pred)
    assert len(report.ratios) == 3
    assert report.limit == pytest.approx(pred.constant, rel=1e-12)
    assert report.rel_deviation < 1e-12
    assert report.passed


def test_fit_rate_recovers_exact_sqrt_corrected_ladder():
    pred = predict_spectral(Stable(0.75), UNIT, Kind.SUBORDINATOR)
    ts = [1e-4, 1e-6, 1e-8]
    samples = [
        (t, pred.constant * pred.rate(t) * (1.0 - 3.0 * math.sqrt(t)), 1e-9)
        for t in ts
    ]
    report = fit_rate(samples, pred)
    assert report.limit == pytest.approx(pred.constant, rel=1e-10)
    assert report.passed


def test_fit_rate_extrapolates_exact_mixed_critical_ladder():
    # Exact ratios (|Omega| - Qtilde(t)) / (t log(1/t)) for the mixed 0.25/0.5
    # exponent on the unit interval, from the eigen series with an
    # Euler-Maclaurin tail.  The 0.25 component adds 3.1245 t, a 1/log(1/t)
    # correction to the ratio that is still 10.66% at t = 1e-10.
    exp = MixedStable(((0.25, 1.0), (0.5, 1.0)))
    pred = predict_spectral(exp, UNIT, Kind.SUBORDINATOR)
    exact = {1e-6: 1.4990716, 1e-8: 1.4428344, 1e-10: 1.4089331}
    samples = [(t, r * pred.rate(t), 0.0) for t, r in exact.items()]
    report = fit_rate(samples, pred, tolerance=0.10)
    assert report.limit == pytest.approx(4.0 / math.pi, abs=1e-4)
    assert report.passed
    assert abs(exact[1e-10] - pred.constant) > 0.10 * pred.constant


def test_fit_rate_flags_wrong_constant():
    pred = predict_spectral(Stable(0.5), UNIT, Kind.SUBORDINATOR)
    samples = [(t, 2.0 * pred.constant * pred.rate(t), 1e-6) for t in (1e-4, 1e-6, 1e-8)]
    report = fit_rate(samples, pred)
    assert report.rel_deviation == pytest.approx(1.0, rel=1e-10)
    assert not report.passed


def test_fit_rate_ladder_validation():
    pred = predict_spectral(Stable(0.5), UNIT, Kind.SUBORDINATOR)
    with pytest.raises(ValueError):
        fit_rate([(1e-4, 1.0, 0.0), (1e-6, 1.0, 0.0)], pred)
    with pytest.raises(ValueError):
        fit_rate([(1e-6, 1.0, 0.0), (1e-4, 1.0, 0.0), (1e-8, 1.0, 0.0)], pred)
