import math
import os

import numpy as np
import pytest
from scipy import integrate

from subheat import (
    Disk,
    Interval,
    Kind,
    MixedStable,
    RandomStream,
    Stable,
    TemperedStable,
    TimeChangeSpec,
    UnsupportedConfigurationError,
    estimate_regular,
    estimate_spectral_disk,
    estimate_spectral_inverse,
    estimate_spectral_subordinate,
    exact_H_interval,
    exact_Q_interval,
    subordinate_deficit_series,
)
from subheat import samplers
from subheat.estimators import _regular_kernel
from subheat.samplers import BLOCK, combine_blocks

UNIT = Interval(0.0, 1.0)


def _assert_within(est, target, slack=0.0):
    assert abs(est.value - target) <= 4.0 * est.stderr + slack, (
        f"value {est.value} vs target {target} (stderr {est.stderr}, slack {slack})"
    )


def test_combine_blocks_matches_flat_moments():
    rng = np.random.default_rng(0)
    xs = [rng.normal(size=k) for k in (5, 700, 31, 64)]
    parts = [(float(x.sum()), float((x * x).sum()), len(x)) for x in xs]
    mean, se = combine_blocks(parts)
    flat = np.concatenate(xs)
    assert mean == pytest.approx(float(flat.mean()), rel=1e-12)
    assert se == pytest.approx(float(flat.std(ddof=1) / math.sqrt(len(flat))), rel=1e-12)


@pytest.mark.parametrize(
    "exp,t,kmax",
    [
        (Stable(0.75), 1e-3, 2_000_001),
        (Stable(0.5), 1e-5, 20_000_001),
        (Stable(0.25), 1e-5, 20_000_001),
        (TemperedStable(0.5, 1.0), 1e-4, 6_000_001),
        (MixedStable(((0.25, 1.0), (0.5, 1.0))), 1e-4, 6_000_001),
    ],
)
def test_spectral_subordinate_matches_series_oracle(exp, t, kmax):
    est = estimate_spectral_subordinate(exp, UNIT, t, 200_000, RandomStream(42))
    series, tail = subordinate_deficit_series(UNIT, exp, t, kmax=kmax)
    _assert_within(est, UNIT.volume - series, slack=tail)
    assert est.n_paths == 200_000
    assert est.seed == 42
    assert est.wall_time > 0.0


@pytest.mark.parametrize(
    "estimate,exp,dom,extra",
    [
        (estimate_spectral_subordinate, Stable(0.75), UNIT, ()),
        (estimate_spectral_inverse, Stable(0.5), UNIT, ()),
        (estimate_regular, Stable(0.5), UNIT, (Kind.SUBORDINATOR,)),
        (estimate_regular, Stable(0.5), UNIT, (Kind.INVERSE,)),
        (estimate_spectral_disk, Stable(0.75), Disk(1.0), (Kind.SUBORDINATOR,)),
        (estimate_spectral_disk, Stable(0.5), Disk(1.0), (Kind.INVERSE,)),
    ],
    ids=["spectral-sub", "spectral-inv", "regular-sub", "regular-inv", "disk-sub", "disk-inv"],
)
def test_worker_bit_identity(estimate, exp, dom, extra):
    # the pool pickles each kernel and its arguments; a ragged last block
    # checks that the block keys do not depend on the schedule
    n = 2 * BLOCK + 17
    a = estimate(exp, dom, 1e-3, n, RandomStream(9), *extra, workers=1)
    b = estimate(exp, dom, 1e-3, n, RandomStream(9), *extra, workers=2)
    assert a.value == b.value
    assert a.deficit == b.deficit
    assert a.stderr == b.stderr


def test_run_blocks_validates_and_caps_workers(monkeypatch):
    # a stand-in pool records its size and runs in process, so no worker
    # count, however large, starts a process here
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(samplers, "ProcessPoolExecutor", InlinePool)
    spec = TimeChangeSpec(Stable(0.75), Kind.SUBORDINATOR)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            samplers.run_blocks(_regular_kernel, (spec, UNIT, 1e-3), 3 * BLOCK, RandomStream(4), workers)
    serial = samplers.run_blocks(_regular_kernel, (spec, UNIT, 1e-3), 3 * BLOCK, RandomStream(4))
    capped = samplers.run_blocks(_regular_kernel, (spec, UNIT, 1e-3), 3 * BLOCK, RandomStream(4), 10**6)
    cpus = os.cpu_count() or 1
    assert capped == serial
    assert sizes == ([min(3, cpus)] if cpus > 1 else [])


def test_mixed_telescoped_worker_bit_identity():
    exp = MixedStable(((0.25, 1.0), (0.5, 1.0)))
    a = estimate_spectral_subordinate(exp, UNIT, 1e-6, 3 * BLOCK, RandomStream(9), workers=1)
    b = estimate_spectral_subordinate(exp, UNIT, 1e-6, 3 * BLOCK, RandomStream(9), workers=2)
    assert a.value == b.value
    assert a.stderr == b.stderr


@pytest.mark.parametrize(
    "exp,t",
    [
        (Stable(0.5), 2e4),
        (Stable(0.25), 2e4),
        (TemperedStable(0.25, 1.0), 1e2),
        (Stable(0.5), 1.0),
        (Stable(0.25), 1.0),
        (TemperedStable(0.25, 1.0), 1.0),
    ],
)
def test_spectral_subordinate_deficit_matches_series_past_saturation(exp, t):
    # once the clock scale passes the deficit's time scale the deficit is no
    # longer a rare event, and importance sampling gives way to plain draws
    est = estimate_spectral_subordinate(exp, UNIT, t, 65_536, RandomStream(8))
    series, tail = subordinate_deficit_series(UNIT, exp, t)
    assert abs(est.deficit - series) <= 4.0 * est.stderr + tail + 1e-12


def test_spectral_subordinate_clamped_to_physical_range():
    est = estimate_spectral_subordinate(Stable(0.75), UNIT, 50.0, 4096, RandomStream(1))
    assert 0.0 <= est.value <= UNIT.volume


def test_estimator_argument_validation():
    with pytest.raises(ValueError):
        estimate_spectral_subordinate(Stable(0.5), UNIT, 0.0, 1024, RandomStream(0))
    with pytest.raises(ValueError):
        estimate_spectral_subordinate(Stable(0.5), UNIT, 1e-3, 1, RandomStream(0))
    with pytest.raises(UnsupportedConfigurationError):
        estimate_spectral_subordinate(Stable(0.5), Disk(1.0), 1e-3, 1024, RandomStream(0))
    with pytest.raises(UnsupportedConfigurationError):
        estimate_spectral_disk(Stable(0.5), UNIT, 1e-3, 1024, RandomStream(0), Kind.SUBORDINATOR)


def _half_clock_average(f, t):
    # E[f(D_t)] for the exact 1/2-stable clock D_t = t^2/(2 Z^2)
    def integrand(z):
        return 2.0 * f(t * t / (2.0 * z * z)) * math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)

    val, _ = integrate.quad(integrand, 1e-12, 40.0, limit=400, points=[1e-4, 1e-2, 1.0])
    return val


def test_regular_subordinate_matches_quadrature():
    t = 1e-3
    target = _half_clock_average(lambda u: exact_H_interval(UNIT, u), t)
    est = estimate_regular(Stable(0.5), UNIT, t, 200_000, RandomStream(17), Kind.SUBORDINATOR)
    _assert_within(est, target)


def test_spectral_inverse_matches_quadrature():
    # E_t for the 1/2-stable clock is |N(0, 2t)|
    t = 1e-3

    def integrand(z):
        u = math.sqrt(2.0 * t) * abs(z)
        return (
            2.0
            * exact_Q_interval(UNIT, u)
            * math.exp(-z * z / 2.0)
            / math.sqrt(2.0 * math.pi)
        )

    target, _ = integrate.quad(integrand, 0.0, 40.0, limit=200)
    est = estimate_spectral_inverse(Stable(0.5), UNIT, t, 200_000, RandomStream(23))
    _assert_within(est, target)


def test_regular_inverse_matches_quadrature():
    t = 1e-3

    def integrand(z):
        u = math.sqrt(2.0 * t) * abs(z)
        return 2.0 * exact_H_interval(UNIT, u) * math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)

    target, _ = integrate.quad(integrand, 0.0, 40.0, limit=200)
    est = estimate_regular(Stable(0.5), UNIT, t, 200_000, RandomStream(29), Kind.INVERSE)
    _assert_within(est, target)


def test_disk_inverse_estimate_is_sane_and_deterministic():
    t = 1e-3
    disk = Disk(1.0)
    a = estimate_spectral_disk(Stable(0.5), disk, t, 16_384, RandomStream(31), Kind.INVERSE)
    b = estimate_spectral_disk(Stable(0.5), disk, t, 16_384, RandomStream(31), Kind.INVERSE)
    assert a.value == b.value
    assert 0.0 < a.value < disk.volume
    # averaging the flat-plus-curvature boundary expansion over the clock:
    # E_t is |N(0, 2t)| here, so E[sqrt(E_t)] = (2t)^(1/4) E[sqrt|Z|] and
    # E[E_t] = sqrt(2t) sqrt(2/pi)
    deficit = disk.volume - a.value
    root_moment = 2.0 ** 0.25 * math.gamma(0.75) / math.sqrt(math.pi)
    pred = disk.surface * (2.0 / math.sqrt(math.pi)) * (2.0 * t) ** 0.25 * root_moment
    pred -= math.pi * math.sqrt(2.0 * t) * math.sqrt(2.0 / math.pi)
    assert deficit == pytest.approx(pred, rel=0.05)


def test_importance_sampling_beats_plain_for_deep_t():
    # at t = 1e-6 the plain estimator has essentially zero effective samples;
    # the weighted one must put its estimate within a few percent of truth
    t = 1e-6
    est = estimate_spectral_subordinate(Stable(0.25), UNIT, t, 100_000, RandomStream(3))
    deficit_true, _ = subordinate_deficit_series(UNIT, Stable(0.25), t, kmax=20_000_001)
    deficit_est = UNIT.volume - est.value
    assert deficit_est == pytest.approx(deficit_true, rel=0.08)
    assert est.stderr < 0.03 * deficit_true
