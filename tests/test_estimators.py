import hashlib
import importlib.util
import math
import struct
import os
import runpy
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

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
    estimate,
    estimate_regular,
    estimate_spectral_inverse,
    estimate_spectral_subordinate,
    exact_deficit_disk,
    exact_deficit_interval,
    exact_deficit_rate_disk,
    exact_deficit_rate_interval,
    exact_H_interval,
    exact_H_rate_interval,
    exact_Q_interval,
    parse_domain,
    parse_exponent,
    phi,
    subordinate_deficit_series,
)
from subheat import samplers
from subheat.diagnostics import _inverse_moment_kernel
from subheat.estimators import _clock_kernel, _deficit_is_draws, _draw_kernel
from subheat.samplers import BLOCK, combine_blocks

UNIT = Interval(0.0, 1.0)


def _weighted(exp, dom, t):
    """Whether the spectral subordinator row is importance-sampled."""
    return _clock_kernel(TimeChangeSpec(exp, Kind.SUBORDINATOR), dom, t, "spectral")[0] is _deficit_is_draws


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


@pytest.mark.parametrize(
    "exp,dom,kind,quantity",
    [
        (Stable(0.75), UNIT, Kind.SUBORDINATOR, "spectral"),
        (Stable(0.5), UNIT, Kind.INVERSE, "spectral"),
        (Stable(0.5), UNIT, Kind.SUBORDINATOR, "regular"),
        (Stable(0.5), UNIT, Kind.INVERSE, "regular"),
        (Stable(0.75), Disk(1.0), Kind.SUBORDINATOR, "spectral"),
        (Stable(0.5), Disk(1.0), Kind.INVERSE, "spectral"),
        (TemperedStable(0.5, 1.0), UNIT, Kind.INVERSE, "spectral"),
        (MixedStable(((0.25, 1.0), (0.5, 1.0))), UNIT, Kind.INVERSE, "regular"),
        (TemperedStable(0.5, 1.0), Disk(1.0), Kind.INVERSE, "spectral"),
        (Stable(0.25), UNIT, Kind.SUBORDINATOR, "spectral"),
        (TemperedStable(0.25, 1.0), UNIT, Kind.SUBORDINATOR, "spectral"),
        (MixedStable(((0.25, 1.0), (0.5, 1.0))), UNIT, Kind.SUBORDINATOR, "spectral"),
        (Stable(0.25), Disk(1.0), Kind.SUBORDINATOR, "spectral"),
    ],
    ids=[
        "spectral-sub", "spectral-inv", "regular-sub", "regular-inv", "disk-sub", "disk-inv",
        "spectral-inv-duality", "regular-inv-duality", "disk-inv-duality",
        "spectral-sub-is", "spectral-sub-is-tempered", "spectral-sub-is-mixed", "disk-sub-is",
    ],
)
def test_worker_bit_identity(exp, dom, kind, quantity):
    # the shared worker pool pickles each kernel and its arguments; a ragged
    # last block checks that the block keys do not depend on the schedule,
    # and on the importance-sampled route that each block's scrambled nets
    # come from its own stream
    n = 2 * BLOCK + 17
    spec = TimeChangeSpec(exp, kind)
    a = estimate(spec, dom, 1e-3, n, RandomStream(9), quantity, workers=1)
    b = estimate(spec, dom, 1e-3, n, RandomStream(9), quantity, workers=2)
    assert a.value == b.value
    assert a.deficit == b.deficit
    assert a.stderr == b.stderr


@pytest.mark.parametrize(
    "exponent,domain,kind,quantity,t,kernel,digest",
    [
        ("tempered:0.25,1", "interval:0,1", "sub", "spectral", 1e-6, "_deficit_is_draws",
         "f219ef3bc1c676240fbba1100f172925052f4c9189d2e0e65b2c19ad0ff807d8"),
        ("tempered:0.5,1", "interval:0,1", "sub", "spectral", 1e-8, "_deficit_is_draws",
         "1bec1dfe78ab03d008ff2dfb8c5320daa7be2e51d055ab3ccab1f677391e2bc6"),
        ("mixed:0.25*1+0.5*1", "interval:0,1", "sub", "spectral", 1e-8, "_deficit_is_draws",
         "08fdb965e546e297e2a5065e02000a3ebc12d2816d07dc162163c21bc8bfd54d"),
        ("mixed:0.1*1+0.3*2", "disk:1", "sub", "spectral", 1e-6, "_deficit_is_draws",
         "261a4bfe89ef5b62e07fd63edc4fd7e7659c88f6ab0685cc159aecc0809b9ecc"),
        ("tempered:0.5,1", "interval:0,1", "inv", "spectral", 1e-3, "_duality_kernel",
         "885fcdb404082ee6af78f27acfd5bfe13df9bbc198076352c46a1426cdf69769"),
        ("tempered:0.5,1", "interval:0,1", "inv", "regular", 1e-3, "_duality_kernel",
         "5edb2e0a5e7260623018ce67ac3e43bc3dfb6ccad7fe531f5694a088845dbf05"),
        ("mixed:0.25*1+0.5*1", "interval:0,1", "inv", "regular", 1e-3, "_duality_kernel",
         "96f1045aaa1bd3e4e387e6d5aad650c3c8c869414ae6bfcd5a142d57bfbc65d2"),
        ("tempered:0.25,3", "disk:2", "inv", "spectral", 1e-3, "_duality_kernel",
         "f617ad10aee1fecc42c98cb8af2bcd7792eb507f281b8c99dc97e3de9a81f4ea"),
        ("tempered:0.75,1", "interval:0,1", "sub", "spectral", 1e-3, "_deficit_is_draws",
         "478c551f4c86e11985f5a75c2407cdb8eb83a514606670f2341ec70824ee400a"),
        ("tempered:0.75,1", "interval:0,1", "sub", "regular", 1e-3, "_deficit_is_draws",
         "12f4a04d3e44ba016ea1999b1118a1693d695aab8c6bb47962194344ac07ab7d"),
        ("stable:0.75", "interval:0,1", "sub", "regular", 1e-3, "_deficit_is_draws",
         "46c582e9915af6347f519a94eb52430398efe104c64874c1429720f5a8044f07"),
        ("tempered:0.75,1", "interval:0,1", "sub", "spectral", 1.0, "_draw_kernel",
         "e9856d7ebc8dab3b2536db669c36114079a0c478ae7419d73e6bd4b4bfd4d944"),
        ("tempered:0.75,1", "interval:0,1", "sub", "regular", 1.0, "_draw_kernel",
         "69e1ae242704989647445423788a58eaa6b58f714c6d587ccdd6395a379db1a8"),
        ("stable:0.75", "interval:0,1", "sub", "regular", 1.0, "_draw_kernel",
         "fc367e28068746889778bfd7699285f437e09d903fe3876703b048c86aae0854"),
    ],
    ids=lambda x: x[:8] if isinstance(x, str) and len(x) == 64 else None,
)
def test_route_digests(exponent, domain, kind, quantity, t, kernel, digest):
    # sha256 of the packed (value, deficit, stderr) of a 40,000-path estimate,
    # two blocks with a ragged last one, on each route and family that no
    # golden pins: the importance-sampled and duality routes with their tilt
    # weights, at high index and for the regular content too, and plain
    # tempered and high-index draws above the scale rule
    spec, dom = TimeChangeSpec(parse_exponent(exponent), Kind(kind)), parse_domain(domain)
    assert _clock_kernel(spec, dom, t, quantity)[0].__name__ == kernel
    est = estimate(spec, dom, t, 40_000, RandomStream(21), quantity)
    assert hashlib.sha256(struct.pack("<3d", est.value, est.deficit, est.stderr)).hexdigest() == digest


def test_run_blocks_validates_and_caps_workers(monkeypatch):
    # a stand-in pool records its size and runs in process, so no worker
    # count, however large, starts a process here
    sizes = []

    class InlinePool:
        def map(self, fn, tasks):
            return map(fn, tasks)

    def inline_pool(size):
        sizes.append(size)
        return InlinePool()

    monkeypatch.setattr(samplers, "_worker_pool", inline_pool)
    spec = TimeChangeSpec(Stable(0.75), Kind.SUBORDINATOR)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            samplers.run_blocks(_draw_kernel, (spec, UNIT, 1e-3, "regular"), 3 * BLOCK, RandomStream(4), workers)
    serial = samplers.run_blocks(_draw_kernel, (spec, UNIT, 1e-3, "regular"), 3 * BLOCK, RandomStream(4))
    capped = samplers.run_blocks(_draw_kernel, (spec, UNIT, 1e-3, "regular"), 3 * BLOCK, RandomStream(4), 10**6)
    cpus = os.cpu_count() or 1
    assert capped == serial
    # one pool size for every block count, so that calls share the pool
    assert sizes == ([cpus] if cpus > 1 else [])


_NEEDS_TWO_CPUS = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="the pool needs two CPUs")


@_NEEDS_TWO_CPUS
def test_consecutive_calls_reuse_one_pool():
    spec = TimeChangeSpec(Stable(0.75), Kind.SUBORDINATOR)
    draws = (_draw_kernel, (spec, UNIT, 1e-3, "spectral"), 4 * BLOCK + 17)
    moments = (
        _inverse_moment_kernel,
        (TimeChangeSpec(Stable(0.5), Kind.INVERSE), 1e-3, 1.0, phi(Stable(0.5), 1e3)),
        2 * BLOCK,
    )
    serial = [samplers.run_blocks(kernel, args, n, RandomStream(6)) for kernel, args, n in (draws, moments)]
    pools = []
    for _ in range(2):
        pooled = [samplers.run_blocks(kernel, args, n, RandomStream(6), 2) for kernel, args, n in (draws, moments)]
        assert pooled == serial
        pools.append(samplers._pool)
    assert pools[0] is not None and pools[0] is pools[1]
    assert len(serial[1]) == 2


def _exit_in_worker(parent, stream, lo, size, n):
    if os.getpid() != parent:
        os._exit(3)
    return stream.uniforms(size)


@_NEEDS_TWO_CPUS
def test_broken_pool_is_dropped_and_the_next_call_starts_afresh():
    spec = TimeChangeSpec(Stable(0.75), Kind.SUBORDINATOR)
    args = (spec, UNIT, 1e-3, "spectral")
    serial = samplers.run_blocks(_draw_kernel, args, 3 * BLOCK, RandomStream(5))
    with pytest.raises(BrokenProcessPool):
        samplers.run_blocks(_exit_in_worker, os.getpid(), 2 * BLOCK, RandomStream(5), 2)
    assert samplers._pool is None
    assert samplers.run_blocks(_draw_kernel, args, 3 * BLOCK, RandomStream(5), 2) == serial


@pytest.mark.parametrize("n", [2, 17])
@pytest.mark.parametrize("text", ["stable:0.25", "tempered:0.25,1", "mixed:0.25*1+0.5*1"])
def test_importance_sampled_stderr_is_finite_at_any_path_count(text, n):
    # the stderr comes from the spread of the scrambled nets' means, and an
    # n-path estimate has at least two nets however small n is
    kernel = _clock_kernel(TimeChangeSpec(parse_exponent(text), Kind.SUBORDINATOR), UNIT, 1e-6, "spectral")[0]
    assert kernel is _deficit_is_draws
    est = estimate_spectral_subordinate(parse_exponent(text), UNIT, 1e-6, n, RandomStream(3))
    assert math.isfinite(est.deficit) and math.isfinite(est.stderr) and est.stderr > 0.0


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


def test_spectral_subordinate_near_index_one_matches_series():
    # at b = 0.999 the Kanter power overflows for 0.1% of clock draws, which
    # read the full deficit when they were capped at 1e300
    exp = Stable(0.999)
    est = estimate_spectral_subordinate(exp, UNIT, 1e-3, 262_144, RandomStream(3))
    series, tail = subordinate_deficit_series(UNIT, exp, 1e-3)
    assert abs(est.deficit - series) <= 4.0 * est.stderr + tail


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tiny_index_mixed_deficit_matches_series(seed):
    # a 2^-7 component puts (A/E)^127 past double range where t^128 is
    # below it; a nan draw would score no deficit and bias the estimate low
    exp = MixedStable(((2.0**-7, 1.0), (0.6, 1.0)))
    est = estimate(TimeChangeSpec(exp, Kind.SUBORDINATOR), UNIT, 1e-3, 2**18, RandomStream(seed), "spectral")
    series, tail = subordinate_deficit_series(UNIT, exp, 1e-3)
    assert abs(est.deficit - series) <= 4.0 * est.stderr + tail


def test_refused_importance_sampling_raises_before_any_block():
    # the route is chosen once per estimate, so an out-of-range clock time
    # is refused before the worker pool is made
    samplers._drop_pool()
    with pytest.raises(ValueError, match="out of range for importance sampling"):
        estimate_spectral_subordinate(Stable(1e-300), UNIT, 1e-3, 65_536, RandomStream(0), workers=2)
    assert samplers._pool is None


def test_spectral_subordinate_clamped_to_physical_range():
    est = estimate_spectral_subordinate(Stable(0.75), UNIT, 50.0, 4096, RandomStream(1))
    assert 0.0 <= est.value <= UNIT.volume


def test_estimator_argument_validation():
    with pytest.raises(ValueError):
        estimate_spectral_subordinate(Stable(0.5), UNIT, 0.0, 1024, RandomStream(0))
    with pytest.raises(ValueError):
        estimate_spectral_subordinate(Stable(0.5), UNIT, 1e-3, 1, RandomStream(0))
    # a quantity missing from the domain's oracle table is refused
    spec = TimeChangeSpec(Stable(0.5), Kind.SUBORDINATOR)
    with pytest.raises(UnsupportedConfigurationError, match="Disk has no regular"):
        estimate(spec, Disk(1.0), 1e-3, 1024, RandomStream(0), "regular")
    with pytest.raises(UnsupportedConfigurationError):
        estimate(spec, UNIT, 1e-3, 1024, RandomStream(0), "content")


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
    a = estimate(TimeChangeSpec(Stable(0.5), Kind.INVERSE), disk, t, 16_384, RandomStream(31))
    b = estimate(TimeChangeSpec(Stable(0.5), Kind.INVERSE), disk, t, 16_384, RandomStream(31))
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


def _disk_subordinate_deficit(exp, t, head=20_000):
    # E[pi - Q(D_t)] on the unit disk: the sum over the zeros j_n of J0 of
    # 4 pi/j_n^2 (1 - e^(-t phi(j_n^2))), with zeros tabulated up to n = 100
    # and by McMahon's expansion beyond; the terms past the head are the
    # integral of the same term at j = pi (x - 1/4) from head + 1/2 on (the
    # midpoint rule), taken in log x
    b = (np.arange(101.0, head + 1.0) - 0.25) * np.pi
    zeros = np.concatenate([special.jn_zeros(0, 100), b + 1.0 / (8.0 * b) - 124.0 / (3.0 * (8.0 * b) ** 3)])

    def term(j):
        return 4.0 * np.pi / j**2 * -np.expm1(-t * phi(exp, j * j))

    def integrand(y):
        return float(term(np.pi * (math.exp(y) - 0.25))) * math.exp(y)

    # pieces short enough for quad to see the knee at j ~ t^(-1/(2b))
    y0 = math.log(head + 0.5)
    tail = sum(integrate.quad(integrand, a, a + 10.0, limit=200)[0] for a in y0 + np.arange(0.0, 80.0, 10.0))
    return float(np.sum(term(zeros))) + tail


def _benchmark_references():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "references.py"
    spec = importlib.util.spec_from_file_location("_benchmark_references", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("text", ["stable:0.5", "mixed:0.25*1+0.5*1"])
def test_disk_subordinate_helper_meets_the_benchmark_reference(text):
    # at t = 1e-10 and index 1/2 the knee of the series sits deep in the
    # tail, which one quad over the whole tail missed by 1e-4 relative
    exp, t = parse_exponent(text), 1e-10
    ref = _benchmark_references()
    target = ref.disk_deficit(1.0, ref.subordinator_clock(exp, t))
    assert _disk_subordinate_deficit(exp, t) == pytest.approx(target, rel=1e-7)


@pytest.mark.parametrize(
    "exp,t,weighted",
    [(Stable(0.75), 1e-2, True), (Stable(0.75), 1e-3, True), (Stable(0.25), 1e-8, True), (Stable(0.75), 1.0, False)],
)
def test_disk_subordinate_matches_the_j0_series(exp, t, weighted):
    # plain draws past the scale rule; below it the deficit is a rare event
    # of the clock at every index, and the importance-sampled draws score
    # the disk
    disk = Disk(1.0)
    assert _weighted(exp, disk, t) is weighted
    est = estimate(TimeChangeSpec(exp, Kind.SUBORDINATOR), disk, t, 65_536, RandomStream(12))
    target = _disk_subordinate_deficit(exp, t)
    assert abs(est.deficit - target) <= 4.0 * est.stderr
    assert est.stderr <= 0.03 * target


def test_disk_inverse_matches_quadrature():
    # E_t for the 1/2-stable clock is |N(0, 2t)|
    t = 1e-3
    disk = Disk(1.0)

    def integrand(z):
        return 2.0 * exact_deficit_disk(disk, math.sqrt(2.0 * t) * z) * math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)

    target, _ = integrate.quad(integrand, 0.0, 40.0, limit=200)
    est = estimate(TimeChangeSpec(Stable(0.5), Kind.INVERSE), disk, t, 65_536, RandomStream(23))
    assert abs(est.deficit - target) <= 4.0 * est.stderr
    assert est.stderr <= 0.005 * target


def test_importance_sampling_beats_plain_for_deep_t():
    # at t = 1e-6 the plain estimator has essentially zero effective samples;
    # the weighted one must put its estimate within a few percent of truth
    t = 1e-6
    est = estimate_spectral_subordinate(Stable(0.25), UNIT, t, 100_000, RandomStream(3))
    deficit_true, _ = subordinate_deficit_series(UNIT, Stable(0.25), t, kmax=20_000_001)
    deficit_est = UNIT.volume - est.value
    assert deficit_est == pytest.approx(deficit_true, rel=0.08)
    assert est.stderr < 0.03 * deficit_true


def _interval_subordinate_deficit(exp, t, head=20_000):
    # E[1 - Q(D_t)] on (0, 1): the sum over odd k of
    # 8/(k pi)^2 (1 - e^(-t phi((k pi)^2))); the terms past the head are the
    # integral of the same term from 2 head on, halved (the midpoint rule on
    # the odd integers), taken in log k over pieces short enough for quad to
    # see the knee at k pi ~ t^(-1/(2b))
    k = 2.0 * np.arange(head) + 1.0

    def term(k):
        return 8.0 / (k * np.pi) ** 2 * -np.expm1(-t * phi(exp, (k * np.pi) ** 2))

    def integrand(y):
        return float(term(math.exp(y))) * math.exp(y) / 2.0

    y0 = math.log(2.0 * head)
    tail = sum(integrate.quad(integrand, a, a + 10.0, limit=200)[0] for a in y0 + np.arange(0.0, 80.0, 10.0))
    return float(np.sum(term(k))) + tail


@pytest.mark.parametrize(
    "text,dom,t",
    [
        pytest.param(text, dom, t, id=f"{text}-{type(dom).__name__.lower()}-{t:g}")
        for text, dom in (
            ("stable:0.5", UNIT),
            ("stable:0.25", UNIT),
            ("tempered:0.25,1", UNIT),
            ("mixed:0.25*1+0.5*1", UNIT),
            ("stable:0.25", Disk(1.0)),
        )
        for t in (1e-4, 1e-10)
    ]
    # rows the scale rule moved from plain draws, just inside its bound
    + [
        pytest.param("stable:0.5", UNIT, 0.0398, id="stable:0.5-interval-0.0398"),
        pytest.param("mixed:0.1*1+0.3*2", UNIT, 0.01, id="mixed:0.1*1+0.3*2-interval-0.01"),
    ],
)
def test_importance_sampled_stderr_is_calibrated(text, dom, t):
    # 200 seeds of 8,192 paths, each 64 scrambled nets of 128 points: the
    # reported stderr, taken from the nets' spread, holds against the exact
    # deficit
    exp = parse_exponent(text)
    assert _weighted(exp, dom, t)
    target = _interval_subordinate_deficit(exp, t) if dom is UNIT else _disk_subordinate_deficit(exp, t)
    spec = TimeChangeSpec(exp, Kind.SUBORDINATOR)
    ests = [estimate(spec, dom, t, 8192, RandomStream(seed)) for seed in range(200)]
    z = np.array([(e.deficit - target) / e.stderr for e in ests])
    assert 0.85 <= z.std(ddof=1) <= 1.15
    assert np.abs(z).max() <= 5.0


@pytest.mark.parametrize(
    "text,quantity,t",
    [
        ("stable:0.25", "regular", 1e-6),
        ("mixed:0.25*1+0.5*1", "regular", 1e-4),
        ("stable:0.75", "regular", 1e-4),
        ("stable:0.75", "spectral", 1e-4),
        ("tempered:0.75,1", "spectral", 1e-10),
    ],
)
def test_newly_weighted_rows_are_calibrated(text, quantity, t):
    # regular rows and high-index rows took plain draws, whose stderr did
    # not hold there (z = -44,725 for stable:0.25 regular at 1e-10, z sd 1.56
    # for stable:0.75 at 1e-10); on the weighted route 200 seeds of 8,192
    # paths hold against the exact references of the benchmark
    exp = parse_exponent(text)
    ref = _benchmark_references()
    clock = ref.subordinator_clock(exp, t)
    target = ref.interval_regular(1.0, clock) if quantity == "regular" else ref.interval_deficit(1.0, clock)
    spec = TimeChangeSpec(exp, Kind.SUBORDINATOR)
    assert _clock_kernel(spec, UNIT, t, quantity)[0] is _deficit_is_draws
    ests = [estimate(spec, UNIT, t, 8192, RandomStream(seed), quantity) for seed in range(200)]
    z = np.array([(e.deficit - target) / e.stderr for e in ests])
    assert 0.8 <= z.std(ddof=1) <= 1.2
    assert np.abs(z).max() <= 5.0


# ------------------------------------------------------ importance switch


_SAT = math.pi / 4.0  # saturation clock of both interval (0, 1) and disk(1)

# each clock at the bound of the scale rule that binds it: the twin's clock
# scale t sum w u_cap^(-b) = 1/20, or for tempered:0.1,1 the tilt
# t theta^b = b/3, which comes before its scale bound at t = 0.0488
_RULE_BOUNDS = (
    ("stable:0.1", 0.05 * _SAT**0.1),
    ("stable:0.0078125", 0.05 * _SAT**0.0078125),
    ("tempered:0.5,1", 0.05 * _SAT**0.5),
    ("tempered:0.1,1", 0.1 / 3.0),
    ("mixed:0.1*1+0.3*2", 0.05 / (_SAT**-0.1 + 2.0 * _SAT**-0.3)),
)


@pytest.mark.parametrize(
    "exp,dom,t,weighted",
    [
        pytest.param(Stable(0.5), UNIT, 1.0, False, id="exp0-1.0-False"),
        pytest.param(Stable(0.5), UNIT, 0.1, False, id="exp1-0.1-False"),
        pytest.param(Stable(0.25), UNIT, 1.0, False, id="exp2-1.0-False"),
        pytest.param(Stable(0.5), UNIT, 1e-3, True, id="exp3-0.001-True"),
        pytest.param(Stable(0.25), UNIT, 1e-3, True, id="exp4-0.001-True"),
    ]
    + [
        pytest.param(parse_exponent(text), dom, bound * scale, weighted, id=f"{text}-{name}-{side}")
        for text, bound in _RULE_BOUNDS
        for name, dom in (("interval", UNIT), ("disk", Disk(1.0)))
        for side, scale, weighted in (("inside", 0.98, True), ("outside", 1.02, False))
    ],
)
def test_importance_switch_picks_the_lower_stderr(exp, dom, t, weighted):
    # the rule sends a row to the proposal only where the proposal's stderr
    # is below that of plain draws, so the path taken is never noisier than
    # plain draws of the same clock
    n = 65_536
    assert _weighted(exp, dom, t) is weighted
    est = estimate(TimeChangeSpec(exp, Kind.SUBORDINATOR), dom, t, n, RandomStream(8))
    plain = dom.ORACLES["spectral"][0](dom, samplers.sample_subordinator(exp, t, RandomStream(8, 2**40), n))
    assert est.stderr <= 1.1 * float(plain.std(ddof=1)) / math.sqrt(n)
    target, tail = subordinate_deficit_series(UNIT, exp, t) if dom is UNIT else (_disk_subordinate_deficit(exp, t), 0.0)
    assert abs(est.deficit - target) <= 4.0 * est.stderr + tail


@pytest.mark.parametrize(
    "text", ["stable:0.5", "stable:0.25", "tempered:0.25,1", "mixed:0.25*1+0.5*1"]
)
def test_importance_sampling_kept_on_every_deep_rung(text):
    # the sub-ladder rungs and the verify suites' ladders stay weighted
    for t in (1e-4, 1e-6, 1e-8, 1e-10):
        assert _weighted(parse_exponent(text), UNIT, t)


_BENCHMARK = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "configs.py"))

# the kernel of every benchmark row, (spectral, regular) for each sub-ladder
# clock on every rung, and one kernel for every quantity and rung of each
# cli-sweep estimate call
_SUB_LADDER_KERNELS = {
    "stable:0.75": ("_deficit_is_draws", "_deficit_is_draws"),
    "stable:0.5": ("_deficit_is_draws", "_deficit_is_draws"),
    "stable:0.25": ("_deficit_is_draws", "_deficit_is_draws"),
    "tempered:0.25,1": ("_deficit_is_draws", "_deficit_is_draws"),
    "tempered:0.75,1": ("_deficit_is_draws", "_deficit_is_draws"),
    "mixed:0.25*1+0.5*1": ("_deficit_is_draws", "_deficit_is_draws"),
}
_CLI_SWEEP_KERNELS = {
    ("stable:0.75", "interval:0,1", "sub"): "_deficit_is_draws",
    ("stable:0.5", "interval:0,1", "inv"): "_draw_kernel",
    ("stable:0.75", "disk:1", "sub"): "_deficit_is_draws",
    ("stable:0.5", "disk:1", "inv"): "_draw_kernel",
}


def test_every_benchmark_row_keeps_its_route():
    # a benchmark row that changed route would change what its timings mean
    dom = parse_domain(_BENCHMARK["UNIT"])
    assert set(_SUB_LADDER_KERNELS) == set(_BENCHMARK["SUB_LADDER_EXPONENTS"])
    for text, kernels in _SUB_LADDER_KERNELS.items():
        spec = TimeChangeSpec(parse_exponent(text), Kind.SUBORDINATOR)
        for t in _BENCHMARK["SUB_LADDER_RUNGS"]:
            for quantity, name in zip(("spectral", "regular"), kernels):
                assert _clock_kernel(spec, dom, t, quantity)[0].__name__ == name, (text, t, quantity)
    assert set(_CLI_SWEEP_KERNELS) == {row[:3] for row in _BENCHMARK["CLI_ESTIMATES"]}
    for text, domain, kind, ladder in _BENCHMARK["CLI_ESTIMATES"]:
        dom = parse_domain(domain)
        spec = TimeChangeSpec(parse_exponent(text), Kind(kind))
        for t in map(float, ladder.split(",")):
            for quantity in dom.ORACLES:
                name = _clock_kernel(spec, dom, t, quantity)[0].__name__
                assert name == _CLI_SWEEP_KERNELS[text, domain, kind], (text, domain, t, quantity)


# ------------------------------------------------------ duality estimator


@pytest.mark.parametrize("u", [1e-8, 1e-4, 0.01, 0.0999, 0.1001, 0.3, 1.0])
def test_rate_oracles_are_derivatives_of_the_exact_oracles(u):
    h = 1e-5 * u
    for rate, f in ((exact_deficit_rate_interval, exact_deficit_interval), (exact_H_rate_interval, exact_H_interval)):
        diff = (f(UNIT, u + h) - f(UNIT, u - h)) / (2.0 * h)
        assert rate(UNIT, u) == pytest.approx(diff, rel=1e-6)
        assert rate(UNIT, np.array([u]))[0] == rate(UNIT, u)
    assert exact_deficit_rate_interval(UNIT, 0.0) == math.inf
    assert exact_H_rate_interval(UNIT, 0.0) == math.inf


def _half_tempered_inverse(theta, t, rate, dom=UNIT):
    # E f(E_t) = int f'(u) P(D_u < t) du, where D_u is inverse Gaussian with
    # mean u / (2 sqrt(theta)) and shape u^2 / 2; u = v^2 removes the
    # u^(-1/2) of f' at 0
    def cdf(u):
        return stats.invgauss.cdf(t, 1.0 / (u * math.sqrt(theta)), scale=u * u / 2.0)

    scale = math.sqrt(2.0 * t)
    val, _ = integrate.quad(
        lambda v: rate(dom, v * v) * cdf(v * v) * 2.0 * v if v > 0.0 else 0.0,
        0.0,
        math.sqrt(40.0 * scale),
        points=[math.sqrt(c * scale) for c in (0.25, 1.0, 3.0, 10.0)],
        limit=400,
        epsabs=0.0,
        epsrel=1e-10,
    )
    return val


@pytest.mark.parametrize("t", [1e-5, 1e-3, 0.1])
def test_duality_matches_inverse_gaussian_quadrature(t):
    exp = TemperedStable(0.5, 1.0)
    spectral = estimate_spectral_inverse(exp, UNIT, t, 65_536, RandomStream(21))
    regular = estimate_regular(exp, UNIT, t, 65_536, RandomStream(22), Kind.INVERSE)
    for est, rate in ((spectral, exact_deficit_rate_interval), (regular, exact_H_rate_interval)):
        target = _half_tempered_inverse(1.0, t, rate)
        assert abs(est.deficit - target) <= 4.0 * est.stderr
        assert est.stderr <= 0.015 * target


@pytest.mark.parametrize("t", [1e-5, 1e-3])
def test_disk_duality_matches_inverse_gaussian_quadrature(t):
    disk = Disk(1.0)
    est = estimate(TimeChangeSpec(TemperedStable(0.5, 1.0), Kind.INVERSE), disk, t, 65_536, RandomStream(21))
    target = _half_tempered_inverse(1.0, t, exact_deficit_rate_disk, disk)
    assert abs(est.deficit - target) <= 4.0 * est.stderr
    assert est.stderr <= 0.015 * target


def test_disk_duality_matches_the_grid_walk():
    exp, t, disk, n = TemperedStable(0.5, 1.0), 1e-3, Disk(1.0), 512
    spec = TimeChangeSpec(exp, Kind.INVERSE, grid_step=t * 1e-2)
    walk = exact_deficit_disk(disk, samplers.sample_inverse(spec, t, RandomStream(5), n))
    dual = estimate(TimeChangeSpec(exp, Kind.INVERSE), disk, t, 65_536, RandomStream(7))
    se = math.hypot(float(walk.std(ddof=1)) / math.sqrt(n), dual.stderr)
    assert abs(float(walk.mean()) - dual.deficit) <= 4.0 * se


@pytest.mark.parametrize("t", [1e-3, 1e-5])
@pytest.mark.parametrize("text", ["mixed:0.25*1+0.5*1", "tempered:0.75,1"])
def test_duality_matches_the_grid_walk(text, t):
    exp = parse_exponent(text)
    n = 512
    spec = TimeChangeSpec(exp, Kind.INVERSE, grid_step=t * 1e-2)
    e = samplers.sample_inverse(spec, t, RandomStream(5), n)
    duals = (
        estimate_spectral_inverse(exp, UNIT, t, 65_536, RandomStream(7)),
        estimate_regular(exp, UNIT, t, 65_536, RandomStream(8), Kind.INVERSE),
    )
    for f, dual in zip((exact_deficit_interval, exact_H_interval), duals):
        walk = f(UNIT, e)
        se = math.hypot(float(walk.std(ddof=1)) / math.sqrt(n), dual.stderr)
        assert abs(float(walk.mean()) - dual.deficit) <= 4.0 * se


def test_duality_scores_nearly_every_path():
    # the mixture proposal sits where P(D_u < t) is of order one, and each
    # path scores that probability given its Kanter angle, not an indicator;
    # a tempered path scores its difference from the untempered twin, of
    # either sign
    kernel, args, _ = _clock_kernel(TimeChangeSpec(TemperedStable(0.5, 1.0), Kind.INVERSE), UNIT, 1e-3, "spectral")
    scores = kernel(args, RandomStream(3), 0, 65_536, 65_536)
    assert np.mean(scores != 0.0) >= 0.9


@pytest.mark.parametrize(
    "dom,quantity",
    [(UNIT, "spectral"), (UNIT, "regular"), (Disk(1.0), "spectral")],
    ids=["spectral", "regular", "disk"],
)
def test_duality_stderr_is_calibrated_at_small_path_counts(dom, quantity):
    # 200 seeds of 512 paths, the size of one block of a short run: the
    # weights of the defensive mixture are bounded, so the reported stderr
    # holds even this far from the central limit
    exp, t = TemperedStable(0.5, 1.0), 1e-3
    rate = dom.ORACLES[quantity][1]
    target = _half_tempered_inverse(1.0, t, rate, dom)
    spec = TimeChangeSpec(exp, Kind.INVERSE)
    ests = [estimate(spec, dom, t, 512, RandomStream(seed), quantity) for seed in range(200)]
    z = np.array([(e.deficit - target) / e.stderr for e in ests])
    assert 0.85 <= z.std(ddof=1) <= 1.15
    assert np.abs(z).max() <= 5.0
    se = math.sqrt(sum(e.stderr**2 for e in ests)) / len(ests)
    assert abs(np.mean([e.deficit for e in ests]) - target) <= 4.0 * se


@pytest.mark.parametrize(
    "dom,quantity",
    [(UNIT, "spectral"), (UNIT, "regular"), (Disk(1.0), "spectral")],
    ids=["spectral", "regular", "disk"],
)
def test_stable_twin_cuts_the_duality_stderr(dom, quantity):
    # the untempered twin carries nearly all of the tempered score's
    # variance: without it the stderr here is 3.0e-3 to 3.2e-3 of the deficit,
    # with it 7e-5 to 8e-5
    est = estimate(TimeChangeSpec(TemperedStable(0.5, 1.0), Kind.INVERSE), dom, 1e-3, 65_536, RandomStream(11), quantity)
    assert 0.0 < est.stderr <= 5e-4 * est.deficit


def test_duality_reaches_one_percent_at_the_smallest_tempered_index():
    exp, t, n = TemperedStable(0.25, 1.0), 1e-3, 512
    dual = estimate_spectral_inverse(exp, UNIT, t, 65_536, RandomStream(7))
    assert dual.stderr <= 0.01 * dual.deficit
    spec = TimeChangeSpec(exp, Kind.INVERSE, grid_step=t * 1e-2)
    walk = exact_deficit_interval(UNIT, samplers.sample_inverse(spec, t, RandomStream(5), n))
    se = math.hypot(float(walk.std(ddof=1)) / math.sqrt(n), dual.stderr)
    assert abs(float(walk.mean()) - dual.deficit) <= 4.0 * se


@pytest.mark.parametrize("b,t", [(1e-3, 1.0), (1e-3, 1e-300), (0.999, 1e-3), (0.999, 1e-300)])
def test_duality_meets_the_exact_stable_inverse_at_extreme_indexes(b, t):
    # a one-component mixed clock takes the duality kernel, a stable one the
    # closed form E_t = (t/S_1)^b: the same clock by two routes.  At b = 1e-3
    # the powers 1/b and 1/(1-b) of the Kanter form are 1000 apart, so each
    # draw must be one power of a product to stay in double range.  E_t at
    # b = 1e-3 is of order 1 even at t = 1e-300, so a long interval keeps the
    # deficit off saturation
    dom = Interval(0.0, 100.0) if b < 0.5 else UNIT
    for quantity in ("spectral", "regular"):
        dual = estimate(TimeChangeSpec(MixedStable(((b, 1.0),)), Kind.INVERSE), dom, t, 65_536, RandomStream(4), quantity)
        exact = estimate(TimeChangeSpec(Stable(b), Kind.INVERSE), dom, t, 65_536, RandomStream(5), quantity)
        assert abs(dual.deficit - exact.deficit) <= 4.0 * math.hypot(dual.stderr, exact.stderr)


def test_small_index_and_tiny_tempering_inverse_estimates():
    # E_1 at b = 1e-3 is of order 1, far inside (0, 100), so the deficit is
    # 4 E[sqrt(E_1)]/sqrt(pi) to about e^-1000
    est = estimate_spectral_inverse(Stable(1e-3), Interval(0.0, 100.0), 1.0, 65_536, RandomStream(3))
    target = 4.0 / math.sqrt(math.pi) * special.gamma(1.5) / special.gamma(1.0 + 0.5e-3)
    assert abs(est.deficit - target) <= 4.0 * est.stderr
    # theta = 1e-300 tempers nothing: both domains give the stable values
    for dom in (UNIT, Disk(1.0)):
        tiny = estimate_spectral_inverse(TemperedStable(0.5, 1e-300), dom, 1e-3, 65_536, RandomStream(5))
        stable = estimate_spectral_inverse(Stable(0.5), dom, 1e-3, 65_536, RandomStream(6))
        assert math.isfinite(tiny.deficit) and tiny.stderr > 0.0
        assert abs(tiny.deficit - stable.deficit) <= 4.0 * math.hypot(tiny.stderr, stable.stderr)


def test_walk_kept_past_small_times():
    # u0 theta^b = 1/phi(1/t) = 2.4 at t = 1: E_t concentrates and the grid
    # walk is cheap, so both rows are the walk's at its default step, to the
    # bit; the recorded values are the walk's before the duality estimator
    # existed (the regular one up to the rounding of the expm1 form of H)
    exp, t = TemperedStable(0.5, 1.0), 1.0
    spectral = estimate_spectral_inverse(exp, UNIT, t, 512, RandomStream(3))
    regular = estimate_regular(exp, UNIT, t, 512, RandomStream(4), Kind.INVERSE)
    for est, walk in (
        (spectral, estimate(TimeChangeSpec(exp, Kind.INVERSE, t * 1e-3), UNIT, t, 512, RandomStream(3))),
        (regular, estimate(TimeChangeSpec(exp, Kind.INVERSE, t * 1e-3), UNIT, t, 512, RandomStream(4), "regular")),
    ):
        assert (est.value, est.stderr) == (walk.value, walk.stderr)
    assert (spectral.value, spectral.stderr) == (0.0049521189644365915, 0.0018428667566067994)
    assert regular.value == pytest.approx(0.8009321608867099, rel=1e-14)
    assert regular.stderr == pytest.approx(0.003356908008648534, rel=1e-12)
