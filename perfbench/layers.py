"""Per-layer measurements: one public call per layer on workload-shaped inputs.

Every call runs inside a span whose work count is the number of values,
draws, paths or path-steps it produced; the metrics are read off the spans.
Inputs come from fixed streams (seed 0), not from the run's seed, so the
counts (grid_steps_per_path, disk_steps_per_path) are properties of the code
and repeat exactly from run to run.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np

import subheat
from subheat import Interval, Kind, MixedStable, RandomStream, Stable, TemperedStable, TimeChangeSpec
from subheat.cli import main as cli_main
from subheat.heat_oracles import disk_survival_block, interval_survival_block

import configs

UNIT = Interval(0.0, 1.0)
N_VALUES = 2**20
N_PATHS = 131_072
GRID_PATHS = 64
DISK_PATHS = 8_192


class CountingStream(RandomStream):
    """RandomStream that counts calls for normal variates: the disk and
    interval walkers draw one batch of normals per step."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "normal_calls", [0])

    def normals(self, size=None):
        self.normal_calls[0] += 1
        return super().normals(size)


def _stream(key: int) -> RandomStream:
    return RandomStream(0, key << 40)


def _ns(sp) -> float:
    return 1e9 * sp.duration / sp.work


def measure(tracer) -> dict[str, float]:
    """One round of every per-layer measurement; returns metric -> value."""
    span = tracer.span
    m: dict[str, float] = {}

    with span("levy_exponents.phi", N_VALUES) as sp:
        subheat.phi(TemperedStable(0.25, 1.0), np.geomspace(1.0, 1e12, N_VALUES))
    m["levy_exponents.phi_ns_per_value"] = _ns(sp)

    # samplers
    with span("samplers.uniforms", N_VALUES) as sp:
        u = _stream(1).uniforms(N_VALUES)
    m["samplers.philox_ns_per_value"] = _ns(sp)
    with span("samplers.kanter_angle", N_VALUES) as sp:
        subheat.kanter_angle(np.maximum(u, 2.0**-54), 0.5)
    m["samplers.kanter_ns_per_value"] = _ns(sp)
    with span("samplers.sample_stable", N_VALUES) as sp:
        subheat.sample_stable(0.75, 1e-8, _stream(2), N_VALUES)
    m["samplers.stable_ns_per_draw"] = _ns(sp)
    with span("samplers.sample_tempered", N_VALUES // 2) as sp:
        subheat.sample_tempered(0.25, 1.0, 1e-4, _stream(3), N_VALUES // 2)
    m["samplers.tempered_ns_per_draw"] = _ns(sp)
    with span("samplers.sample_inverse.exact", N_VALUES) as sp:
        subheat.sample_inverse(TimeChangeSpec(Stable(0.5), Kind.INVERSE), 1e-3, _stream(4), N_VALUES)
    m["samplers.inverse_exact_ns_per_draw"] = _ns(sp)
    t = configs.INV_GRID_T
    h = t * 1e-3  # the sampler's default grid step
    grid_exp = subheat.parse_exponent(configs.INV_GRID_EXPONENT)
    with span("samplers.sample_inverse.grid") as sp:
        e = subheat.sample_inverse(TimeChangeSpec(grid_exp, Kind.INVERSE), t, _stream(5), GRID_PATHS)
    # the walk takes floor(E_t / h) whole steps before the crossing step
    steps = np.floor(e / h) + 1.0
    sp.work = float(steps.sum())
    m["samplers.grid_steps_per_path"] = float(steps.mean())
    m["samplers.grid_ns_per_step"] = _ns(sp)

    # heat_oracles
    u_img = np.geomspace(1e-12, 0.099, N_VALUES)
    with span("heat_oracles.exact_Q_interval.image", N_VALUES) as sp:
        subheat.exact_Q_interval(UNIT, u_img)
    m["heat_oracles.Q_image_ns_per_value"] = _ns(sp)
    with span("heat_oracles.exact_Q_interval.eigen", N_VALUES) as sp:
        subheat.exact_Q_interval(UNIT, np.linspace(0.1, 2.0, N_VALUES))
    m["heat_oracles.Q_eigen_ns_per_value"] = _ns(sp)
    with span("heat_oracles.exact_H_interval", N_VALUES) as sp:
        subheat.exact_H_interval(UNIT, u_img)
    m["heat_oracles.H_ns_per_value"] = _ns(sp)
    stream = CountingStream(0, 6 << 40)
    with span("heat_oracles.disk_survival_block") as sp:
        surv = disk_survival_block(1.0, 0.01, stream, strat_index=0, strat_total=DISK_PATHS, n=DISK_PATHS)
    sp.work = DISK_PATHS * stream.normal_calls[0]
    if not np.all(np.isfinite(surv)):
        raise RuntimeError("disk walker returned non-finite survival")
    m["heat_oracles.disk_steps_per_path"] = float(stream.normal_calls[0])
    m["heat_oracles.disk_ns_per_path_step"] = _ns(sp)
    stream = CountingStream(0, 7 << 40)
    with span("heat_oracles.interval_survival_block") as sp:
        interval_survival_block(1.0, 0.02, stream, strat_index=0, strat_total=DISK_PATHS, n=DISK_PATHS, n_steps=128)
    sp.work = DISK_PATHS * stream.normal_calls[0]
    m["heat_oracles.interval_walk_ns_per_path_step"] = _ns(sp)

    # estimators
    for name, exp, tt in (
        ("plain", Stable(0.75), 1e-4),
        ("is", Stable(0.25), 1e-8),
        ("is_mixed", MixedStable(((0.25, 1.0), (0.5, 1.0))), 1e-8),
    ):
        with span(f"estimators.estimate_spectral_subordinate.{name}", N_PATHS) as sp:
            subheat.estimate_spectral_subordinate(exp, UNIT, tt, N_PATHS, _stream(8))
        m[f"estimators.{name}_ns_per_path"] = _ns(sp)
    with span("estimators.estimate_regular", N_PATHS) as sp:
        subheat.estimate_regular(Stable(0.75), UNIT, 1e-4, N_PATHS, _stream(9), Kind.SUBORDINATOR)
    m["estimators.regular_ns_per_path"] = _ns(sp)
    walls = {}
    for blocks in (2, 16):
        for workers in (1, 2):
            with span(f"estimators.estimate_spectral_subordinate.b{blocks}w{workers}") as sp:
                subheat.estimate_spectral_subordinate(
                    Stable(0.75), UNIT, 1e-3, blocks * 32_768, _stream(10), workers=workers
                )
            walls[blocks, workers] = sp.duration
    m["estimators.pool_overhead_s"] = walls[2, 2] - walls[2, 1]
    m["estimators.pool_speedup"] = walls[16, 1] / walls[16, 2]

    # asymptotics: the predictions every workload makes before its first estimate
    triples = [t for w in ("sub-ladder", "inv-grid", "cli-sweep") for t in configs.predict_configs(w)]
    with span("asymptotics.predict") as sp:
        for exponent, domain, kind in triples:
            exp, dom = subheat.parse_exponent(exponent), subheat.parse_domain(domain)
            subheat.predict_spectral(exp, dom, Kind(kind))
            subheat.predict_regular(exp, dom, Kind(kind))
    m["asymptotics.predict_ms"] = 1e3 * sp.duration

    # diagnostics, with the verify --quick inputs
    with span("diagnostics.check_small_ball") as sp:
        subheat.check_small_ball(Stable(0.5), 1.0, tuple(np.geomspace(1e-2, 1e-4, 5)), 100_000, _stream(11))
    m["diagnostics.small_ball_s"] = sp.duration
    with span("diagnostics.check_levy_convergence") as sp:
        subheat.check_levy_convergence(Stable(0.25), "power-exp:0.5", (1e-2, 1e-3, 1e-4), 100_000, _stream(12))
    m["diagnostics.levy_s"] = sp.duration
    with span("diagnostics.check_inverse_moments") as sp:
        subheat.check_inverse_moments(Stable(0.5), 0.5, (1e-1, 1e-3, 1e-6), 100_000, _stream(13))
    m["diagnostics.inverse_moments_s"] = sp.duration

    # cli: one verify --quick call per suite.  The report's runtime_s is
    # rounded to 1 ms and reads 0 for expansion-identity, so the span around
    # the whole call (parsing and formatting included) is used instead.
    for suite in configs.CLI_SUITES:
        buf = io.StringIO()
        with span(f"cli.verify.{suite}") as sp, contextlib.redirect_stdout(buf):
            code = cli_main(["verify", "--quick", "--suite", suite, "--seed", "0", "--workers", str(configs.CLI_WORKERS)])
        if code not in (0, 1):
            raise RuntimeError(f"verify --suite {suite} exited {code}")
        m[f"cli.suite_s.{suite}"] = sp.duration
    if not all(math.isfinite(v) for v in m.values()):
        raise RuntimeError("a per-layer measurement is not finite")
    return m
