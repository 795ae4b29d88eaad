"""Acceptance suite: one test per published criterion, run at full size.

Each test drives the same suite implementation the CLI exposes through
`subheat verify`, with the full (non-quick) path counts, and asserts the
stated tolerance and runtime budget.  Tolerances are never loosened here: a
criterion whose honest estimate sits outside its stated band is expected to
fail, and the failure output carries the achieved value.
"""

import time

from subheat.cli import RunConfig, cmd_estimate, run_suite

FULL = RunConfig(seed=0, quick=False)


def _run(name, budget_s):
    start = time.perf_counter()
    checks = run_suite(name, FULL)
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{name} took {elapsed:.1f}s, budget {budget_s}s"
    return checks


def _assert_all(checks):
    for name, report in checks:
        assert report.passed, (
            f"{name}: achieved {report.achieved!r} vs target {report.target!r} "
            f"(tolerance {report.tolerance!r})"
        )


def test_criterion_01_highindex_limit():
    # beta=0.75 ratio at t=1e-8, n=1e6, within max(4 stderr, 3%); < 30 s
    _assert_all(_run("highindex-limit", 30.0))


def test_criterion_02_critical_limit():
    # beta=0.5 ladder 1e-6/1e-8/1e-10 monotone; the limit extrapolated from
    # the last two rungs (first-order in 1/log(1/t)) within 10% of 4/pi; < 60 s
    _assert_all(_run("critical-limit", 60.0))


def test_criterion_03_lowindex_limit():
    # beta=0.25 ratio at t=1e-6 vs Levy-measure quadrature, within
    # max(4 stderr, 2%); < 30 s
    _assert_all(_run("lowindex-limit", 30.0))


def test_criterion_04_mixed_critical_limit():
    # mixed sqrt-leading exponent, same ladder and 10% band as criterion 2.
    # The lower-order component's contribution decays like 1/log(1/t) and at
    # t=1e-10 still holds the raw ratio 10.66% above the limit, so the final
    # check compares the limit extrapolated from the last two rungs; see the
    # README note.
    _assert_all(_run("mixed-critical-limit", 60.0))


def test_criterion_05_inverse_limit():
    # inverse stable beta in {0.25, 0.5, 0.75} at t=1e-6: spectral ratio to
    # 2/Gamma(beta/2+1) and regular ratio to half that, each within
    # max(4 stderr, 2%); < 30 s per beta
    _assert_all(_run("inverse-limit", 90.0))


def test_criterion_06_inverse_universality():
    # tempered beta=0.5, theta=1 through the grid inverse sampler at t=1e-5,
    # with grid_step=t*1e-3 passed explicitly (without a step this clock
    # takes the duality estimator), within 5% of 2/Gamma(1.25); < 5 min
    _assert_all(_run("inverse-universality", 300.0))


def test_criterion_07_expansion_identity():
    # first mapped coefficient of the flat-boundary expansion equals the
    # inverse-limit constant to 1e-12, across a beta grid; pure identity
    _assert_all(_run("expansion-identity", 5.0))


def test_criterion_08_moment_suite():
    # sampler moments vs Gamma-ratio formulas at 4 stderr, n=1e6, three
    # (beta, order) pairs per sampler; rescaled inverse moment t-independent
    _assert_all(_run("moment-suite", 60.0))


def test_criterion_09_levy_convergence():
    # beta=0.25 with f = min(x,1)^0.5 e^(-x): final ladder point within
    # max(4 stderr, 2%) of the quadrature target
    _assert_all(_run("levy-convergence", 30.0))


def test_criterion_10_small_ball():
    # fitted decay slope within +-0.1 of beta/(1-beta) for beta in {0.25, 0.5}
    _assert_all(_run("small-ball", 30.0))


def test_criterion_11_oracle_integrity():
    # series-switch continuity <= 1e-12; short-time constant within 1e-4
    # relative; bridge-corrected walk within 0.5% of the exact oracle
    _assert_all(_run("oracle-integrity", 30.0))


def test_criterion_12_determinism():
    # cmd_estimate output is byte-identical across worker counts, for the
    # suite's stable subordinator estimate and for a tempered inverse one at
    # t=1e-3, which takes the duality estimator (one exact D_u per path)
    _assert_all(_run("determinism", 30.0))
    cfg = RunConfig(
        exponent="tempered:0.5,1.0",
        time_change="inv",
        t_ladder=(1e-3,),
        paths=8192,
        seed=6,
    )
    assert cmd_estimate(cfg) == cmd_estimate(RunConfig(
        exponent="tempered:0.5,1.0",
        time_change="inv",
        t_ladder=(1e-3,),
        paths=8192,
        seed=6,
        workers=2,
    ))
