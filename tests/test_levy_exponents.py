import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from subheat import (
    MixedStable,
    RandomStream,
    Regime,
    Stable,
    TemperedStable,
    leading_index,
    levy_density,
    levy_tail,
    parse_exponent,
    phi,
    phi_inverse,
    phi_prime,
    regime,
    sample_subordinator,
)

CATALOG = [
    Stable(0.75),
    Stable(0.5),
    Stable(0.25),
    TemperedStable(0.5, 1.0),
    TemperedStable(0.3, 2.5),
    MixedStable(((0.25, 1.0), (0.5, 1.0))),
    MixedStable(((0.2, 0.5), (0.35, 2.0), (0.6, 1.0))),
]

# a small index with a large weight: at y = 1e8 the bracket its component
# gives phi_inverse ends about 130 decades beyond the root
STIFF_MIXED = MixedStable(((0.05, 10.0), (0.9, 1.0)))


def test_phi_closed_forms():
    assert phi(Stable(0.5), 4.0) == pytest.approx(2.0, rel=1e-15)
    assert phi(TemperedStable(0.5, 1.0), 3.0) == pytest.approx(1.0, rel=1e-15)
    assert phi(MixedStable(((0.25, 1.0), (0.75, 1.0))), 16.0) == pytest.approx(10.0, rel=1e-15)


def test_phi_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        phi(Stable(0.5), 0.0)
    with pytest.raises(ValueError):
        phi(Stable(0.5), -1.0)


@pytest.mark.parametrize("exp", CATALOG + [STIFF_MIXED])
def test_phi_inverse_roundtrip(exp):
    for y in np.geomspace(1e-6, 1e10, 33):
        x = phi_inverse(exp, y)
        assert abs(phi(exp, x) / y - 1.0) <= 1e-12


@pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-6])
def test_tempered_phi_is_cancellation_free(s):
    # (s + theta)^b - theta^b loses about log10(theta / s) digits at s << theta
    exp = TemperedStable(0.75, 1.0)
    ref = exp.theta**exp.beta * math.expm1(exp.beta * math.log1p(s / exp.theta))
    assert abs(phi(exp, s) / ref - 1.0) <= 1e-13
    assert abs(phi(exp, np.array([s]))[0] / ref - 1.0) <= 1e-13


def test_tempered_phi_with_tiny_theta_stays_finite():
    # s/theta overflows, and phi is s^b - theta^b = s^b to rounding
    exp = TemperedStable(0.5, 1e-300)
    for s in (1e9, 1e300):
        assert phi(exp, s) == pytest.approx(s**0.5, rel=1e-15)
    assert phi(exp, np.array([1e-12, 1e9]))[1] == phi(exp, 1e9)


@pytest.mark.parametrize("y", [1e-12, 1e-9, 1e-6])
def test_tempered_phi_inverse_is_cancellation_free(y):
    exp = TemperedStable(0.75, 1.0)
    x = phi_inverse(exp, y)
    # phi in cancellation-free form
    back = exp.theta**exp.beta * math.expm1(exp.beta * math.log1p(x / exp.theta))
    assert abs(back / y - 1.0) <= 1e-13


@pytest.mark.parametrize("beta", sorted({b for exp in CATALOG for b, _ in exp.components}))
def test_stable_is_a_one_component_mixture(beta):
    stable, mixed = Stable(beta), MixedStable(((beta, 1.0),))
    s = np.geomspace(1e-8, 1e12, 50)
    for fn in (phi, phi_prime, levy_density, levy_tail):
        assert fn(stable, s).tobytes() == fn(mixed, s).tobytes()
    draws = [sample_subordinator(e, 1e-3, RandomStream(3), 1000).tobytes() for e in (stable, mixed)]
    assert draws[0] == draws[1]


@pytest.mark.parametrize("exp", CATALOG)
def test_every_family_exposes_components_and_theta(exp):
    comps = exp.components
    assert comps and all(0.0 < b < 1.0 and w > 0.0 for b, w in comps)
    # theta is a field of the tempered family only, so reprs stay as they were
    assert (exp.theta > 0.0) == ("theta" in repr(exp)) == isinstance(exp, TemperedStable)
    assert leading_index(exp) == comps[-1][0]


@pytest.mark.parametrize("exp", CATALOG)
@pytest.mark.parametrize("s", [0.5, 3.0])
def test_phi_matches_levy_integral(exp, s):
    # phi(s) = integral of (1 - e^(-su)) nu(u) du, split at u = 1 with a
    # log substitution on each side to tame the u^(-1-beta) singularity
    def inner(v):
        u = math.exp(v)
        return -math.expm1(-s * u) * levy_density(exp, u) * u

    # the tail mass decays like u^(-beta), so the upper cut must scale with
    # 1/beta for the smallest component index to clear the 1e-8 tolerance
    v_hi = 60.0 / min(b for b, _ in exp.components)
    lo, _ = integrate.quad(inner, -700.0, 0.0, limit=400)
    hi, _ = integrate.quad(inner, 0.0, v_hi, limit=400, points=[1.0, 10.0, 60.0])
    assert lo + hi == pytest.approx(phi(exp, s), rel=1e-8)


@pytest.mark.parametrize("exp", CATALOG)
def test_phi_prime_matches_difference_quotient(exp):
    for s in (0.1, 1.0, 17.0):
        h = s * 1e-6
        numeric = (phi(exp, s + h) - phi(exp, s - h)) / (2.0 * h)
        assert phi_prime(exp, s) == pytest.approx(numeric, rel=1e-6)


@pytest.mark.parametrize("exp", CATALOG)
@pytest.mark.parametrize("delta", [0.05, 1.0, 4.0])
def test_levy_tail_matches_density_quadrature(exp, delta):
    v_hi = math.log(delta) + 60.0 / min(b for b, _ in exp.components)
    val, _ = integrate.quad(
        lambda v: levy_density(exp, math.exp(v)) * math.exp(v),
        math.log(delta),
        v_hi,
        limit=400,
        points=[math.log(delta) + 5.0, math.log(delta) + 40.0],
    )
    assert levy_tail(exp, delta) == pytest.approx(val, rel=1e-8)


def test_levy_density_saturates_instead_of_overflowing():
    with np.errstate(over="raise"):
        vals = levy_density(Stable(0.95), np.array([1e-300, 1e-200, 1e-5]))
    assert np.all(np.isfinite(vals))
    assert vals[0] == np.finfo(float).max


def test_levy_density_rejects_nonpositive():
    with pytest.raises(ValueError):
        levy_density(Stable(0.5), 0.0)
    with pytest.raises(ValueError):
        levy_tail(Stable(0.5), -2.0)


@settings(max_examples=60, deadline=None)
@given(
    beta=st.floats(0.05, 0.95),
    base=st.floats(-5.0, 5.0),
    step=st.floats(0.01, 2.0),
)
def test_phi_increasing_and_concave(beta, base, step):
    exp = Stable(beta)
    s = [math.exp(base), math.exp(base) + step, math.exp(base) + 2.0 * step]
    v = [phi(exp, x) for x in s]
    assert v[0] < v[1] < v[2]
    # midpoint above the chord on an equally spaced triple
    assert v[1] >= 0.5 * (v[0] + v[2]) - 1e-12 * abs(v[1])


@settings(max_examples=60, deadline=None)
@given(
    b1=st.floats(0.05, 0.45),
    b2=st.floats(0.5, 0.95),
    w1=st.floats(0.1, 5.0),
    w2=st.floats(0.1, 5.0),
)
def test_regime_follows_leading_index(b1, b2, w1, w2):
    mixed = MixedStable(((b1, w1), (b2, w2)))
    assert leading_index(mixed) == b2
    assert regime(mixed) is regime(Stable(b2))


def test_regime_classification():
    assert regime(Stable(0.75)) is Regime.HIGH_INDEX
    assert regime(Stable(0.5)) is Regime.CRITICAL
    assert regime(Stable(0.25)) is Regime.LOW_INDEX
    assert regime(TemperedStable(0.5, 1.0)) is Regime.CRITICAL
    assert regime(MixedStable(((0.25, 1.0), (0.5, 1.0)))) is Regime.CRITICAL
    assert regime(MixedStable(((0.1, 1.0), (0.3, 1.0)))) is Regime.LOW_INDEX


def test_parse_exponent_roundtrip():
    assert parse_exponent("stable:0.5") == Stable(0.5)
    assert parse_exponent("tempered:0.5,1.0") == TemperedStable(0.5, 1.0)
    assert parse_exponent("mixed:0.25*1+0.5*1") == MixedStable(((0.25, 1.0), (0.5, 1.0)))
    assert parse_exponent("mixed:0.25+0.5") == MixedStable(((0.25, 1.0), (0.5, 1.0)))
    assert parse_exponent("mixed:0.2*0.5+0.35*2") == MixedStable(((0.2, 0.5), (0.35, 2.0)))


@pytest.mark.parametrize(
    "text",
    [
        "stable:1.5",
        "stable:0",
        "stable:",
        "tempered:0.5",
        "tempered:0.5,-1",
        "mixed:",
        "mixed:0.5+0.25",  # indexes must strictly increase
        "mixed:0.25*",
        "gamma:2",
        "stable",
    ],
)
def test_parse_exponent_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_exponent(text)


def test_catalog_validation():
    with pytest.raises(ValueError):
        Stable(1.0)
    with pytest.raises(ValueError):
        TemperedStable(0.5, 0.0)
    with pytest.raises(ValueError):
        MixedStable(())
    with pytest.raises(ValueError):
        MixedStable(((0.5, 1.0), (0.25, 1.0)))
