"""The benchmark's exact references against the package's own oracles.

Each reference is checked wherever an independent route converges: a frozen
clock turns the clock-averaged series back into exact_Q_interval and
exact_H_interval, subordinate_deficit_series agrees within its tail bound
at shallow times, the J0-Bessel disk series meets the package's disk walker
within its walk band, and the inverse-Gaussian duality quadrature meets the
Mittag-Leffler series as the tempering vanishes.
"""

import math

import numpy as np
import pytest
from scipy import special

import references as ref
from subheat import Disk, Interval, MixedStable, RandomStream, Stable, TemperedStable, exact_H_interval
from subheat import exact_Q_interval, mc_Q_disk, subordinate_deficit_series

UNIT = Interval(0.0, 1.0)


@pytest.mark.parametrize("u", [1e-6, 1e-4, 1e-2, 0.0999, 0.1001, 0.5, 3.0])
def test_frozen_clock_gives_back_the_interval_oracles(u):
    clock = ref.deterministic_clock(u)
    deficit = 1.0 - exact_Q_interval(UNIT, u)
    assert ref.interval_deficit(1.0, clock) == pytest.approx(deficit, rel=1e-9, abs=1e-15)
    assert ref.interval_regular(1.0, clock) == pytest.approx(exact_H_interval(UNIT, u), rel=1e-12)


def test_frozen_clock_short_time_deficit_is_exact():
    # L - Q(u) = 4 sqrt(u / pi) up to terms of order exp(-L^2 / (4u))
    for u in (1e-14, 1e-12, 1e-10):
        assert ref.interval_deficit(1.0, ref.deterministic_clock(u)) == pytest.approx(4.0 * math.sqrt(u / math.pi), rel=1e-12)


@pytest.mark.parametrize(
    "exp, t",
    [
        (Stable(0.75), 1e-4),
        (Stable(0.25), 1e-4),
        (TemperedStable(0.25, 1.0), 1e-4),
        (MixedStable(((0.25, 1.0), (0.5, 1.0))), 1e-4),
    ],
)
def test_subordinator_deficit_within_the_package_series_tail_bound(exp, t):
    series, tail = subordinate_deficit_series(UNIT, exp, t, kmax=2_000_001)
    mine = ref.interval_deficit(1.0, ref.subordinator_clock(exp, t))
    # the bound is attained once the truncated terms saturate, up to the
    # Euler-Maclaurin half-term f(kmax)/2 (~1e-13) that it leaves out
    assert series <= mine <= series + tail * (1.0 + 1e-6)


def test_duality_quadrature_meets_the_mittag_leffler_series():
    # tempering theta -> 0 turns the 1/2-tempered clock into the 1/2-stable one
    for t in (1e-3, 1e-5):
        deficit, regular = ref.half_tempered_inverse(1.0, 1e-14, t)
        clock = ref.half_stable_inverse_clock(t)
        assert deficit == pytest.approx(ref.interval_deficit(1.0, clock), rel=1e-7)
        assert regular == pytest.approx(ref.interval_regular(1.0, clock), rel=1e-7)


def test_duality_quadrature_at_the_inv_grid_configuration():
    deficit, regular = ref.half_tempered_inverse(1.0, 1.0, 1e-3)
    assert deficit == pytest.approx(0.3967548, abs=1e-6)
    assert regular == pytest.approx(0.1988233, abs=1e-6)


def test_bessel_zeros_past_the_table():
    n = np.arange(101, 400)
    assert np.max(np.abs(ref._bessel_j0_zero(n) / special.jn_zeros(0, 399)[100:] - 1.0)) < 1e-13


def test_disk_deficit_limits():
    # short time: |dOmega| 2 sqrt(u / pi) - pi u for the unit disk
    u = 1e-10
    short = 2.0 * math.pi * 2.0 * math.sqrt(u / math.pi) - math.pi * u
    assert ref.disk_deficit(1.0, ref.deterministic_clock(u)) == pytest.approx(short, rel=1e-7)
    # long time: only the first Bessel mode survives
    u = 3.0
    j1 = special.jn_zeros(0, 1)[0]
    content = math.pi - ref.disk_deficit(1.0, ref.deterministic_clock(u))
    assert content == pytest.approx(4.0 * math.pi / j1**2 * math.exp(-(j1**2) * u), rel=1e-6)


@pytest.mark.parametrize("u", [1e-3, 1e-2])
def test_disk_deficit_meets_the_package_walker(u):
    # the bridge-corrected walk is allowed a 0.5% bias (acceptance criterion 11)
    disk = Disk(1.0)
    est = mc_Q_disk(disk, u, 65_536, RandomStream(1, 0))
    content = disk.volume - ref.disk_deficit(1.0, ref.deterministic_clock(u))
    assert abs(est.value - content) <= 5.0 * est.stderr + 0.005 * content
