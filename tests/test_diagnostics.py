import math

import pytest
from scipy import integrate
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc

from subheat import diagnostics
from subheat import (
    HypothesisViolationError,
    LadderReport,
    LadderTooDeepError,
    RandomStream,
    Stable,
    TemperedStable,
    check_inverse_moments,
    check_levy_convergence,
    check_small_ball,
)

# ------------------------------------------------------- levy convergence


def _stable_power_exp_integral(beta, g):
    # integral of min(x,1)^g e^(-x) against the stable Levy measure
    # (beta/Gamma(1-beta)) x^(-1-beta) dx, split at 1: the head is the
    # alternating series sum_k (-1)^k / (k! (g - beta + k)), the tail is the
    # upper incomplete gamma Gamma(-beta, 1) via one recurrence step
    head = sum((-1.0) ** k / (math.factorial(k) * (g - beta + k)) for k in range(40))
    upper_1mb = gamma_fn(1.0 - beta) * gammaincc(1.0 - beta, 1.0)
    tail = (math.exp(-1.0) - upper_1mb) / beta
    return beta / gamma_fn(1.0 - beta) * (head + tail)


@pytest.mark.parametrize("beta,g", [(0.25, 0.8), (0.5, 0.9), (0.75, 1.3)])
def test_levy_target_matches_incomplete_gamma_series(beta, g):
    report = check_levy_convergence(
        Stable(beta), f"power-exp:{g}", [1e-2], 4096, RandomStream(0)
    )
    assert report.target == pytest.approx(_stable_power_exp_integral(beta, g), rel=1e-8)


def test_levy_bump_target_matches_direct_quadrature():
    beta = 0.5

    def integrand(x):
        return math.exp(-1.0 / ((x - 1.0) * (2.0 - x))) * beta / gamma_fn(
            1.0 - beta
        ) * x ** (-1.0 - beta)

    want, _ = integrate.quad(integrand, 1.0, 2.0, limit=200)
    report = check_levy_convergence(Stable(beta), "bump", [1e-2], 4096, RandomStream(0))
    assert report.target == pytest.approx(want, rel=1e-8)


def test_levy_convergence_stable_bump_passes():
    # the bump sits on [1,2], a rare event for D_t at small t; the weighted
    # draws keep the relative error workable there
    report = check_levy_convergence(
        Stable(0.5), "bump", [1e-2, 1e-3, 1e-4], 200_000, RandomStream(11)
    )
    assert report.passed
    assert report.achieved == pytest.approx(report.target, rel=0.05)
    assert [t for t, _, _ in report.points] == [1e-2, 1e-3, 1e-4]


def test_levy_convergence_tempered_plain_branch_passes():
    report = check_levy_convergence(
        TemperedStable(0.5, 1.0), "power-exp:0.9", [1e-2, 1e-3], 200_000, RandomStream(5)
    )
    assert report.passed


def test_levy_convergence_zero_function():
    report = check_levy_convergence(Stable(0.5), "zero", [1e-3], 4096, RandomStream(0))
    assert report.target == 0.0
    assert report.achieved == 0.0
    assert report.passed


def test_levy_convergence_validation():
    with pytest.raises(HypothesisViolationError):
        check_levy_convergence(Stable(0.5), "power-exp:0.4", [1e-3], 64, RandomStream(0))
    with pytest.raises(ValueError):
        check_levy_convergence(Stable(0.5), "sawtooth", [1e-3], 64, RandomStream(0))
    with pytest.raises(ValueError):
        check_levy_convergence(Stable(0.5), "bump", [], 64, RandomStream(0))


def test_levy_convergence_refuses_a_proposal_out_of_range():
    # the clock scale t^(1/b) = e^-6.9e300 is beyond the proposal's log range;
    # the range check refuses it instead of drawing zeros
    with pytest.raises(ValueError, match=(
        r"clock time 0.001 is out of range for importance sampling at index 1e-300: "
        r"the clock scale t\^\(1/b\) = e\^-6.90776e\+300 must"
    )):
        check_levy_convergence(Stable(1e-300), "bump", [1e-3], 4096, RandomStream(0))


@pytest.mark.parametrize("t", [0.05, 1e-2])
def test_levy_convergence_answers_near_index_one(t):
    # the proposal is formed in logs, so near b = 1, where s^(b/(1-b)) left
    # double range for t <= 0.05, it answers, within its band
    report = check_levy_convergence(Stable(0.99), "bump", [t], 4096, RandomStream(0))
    assert len(report.points) == 1 and report.passed


def test_levy_convergence_answers_just_inside_the_proposal_range():
    report = check_levy_convergence(Stable(0.99), "bump", [0.06], 4096, RandomStream(0))
    assert len(report.points) == 1


@pytest.mark.parametrize(
    "check",
    [
        lambda ladder: check_levy_convergence(Stable(0.5), "bump", ladder, 400_000, RandomStream(0)),
        lambda ladder: check_small_ball(Stable(0.5), 1.0, ladder, 400_000, RandomStream(0)),
        lambda ladder: check_inverse_moments(Stable(0.5), 1.0, ladder, 400_000, RandomStream(0)),
    ],
    ids=["levy", "small-ball", "inverse-moments"],
)
def test_repeated_ladder_time_is_refused_before_any_draw(monkeypatch, check):
    calls = []
    monkeypatch.setattr(diagnostics, "run_blocks", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="repeats t = 0.001"):
        check([1e-3, 1e-3])
    assert calls == []


# ------------------------------------------------------------- small ball


def test_small_ball_stable_slope():
    report = check_small_ball(
        Stable(0.25), 1.0, [1e-2, 3e-3, 1e-3, 3e-4, 1e-4], 200_000, RandomStream(3)
    )
    assert report.target == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert abs(report.achieved - report.target) <= report.tolerance == 0.1
    assert report.passed
    stats = [s for _, s, _ in report.points]
    assert all(b > a for a, b in zip(stats, stats[1:]))


def test_small_ball_survives_probability_underflow():
    # at the critical index -log P grows like 1/t, so the t = 1e-4 rung has
    # P around e^(-2500), far below the float64 floor; the statistic must
    # still come out finite and on trend
    report = check_small_ball(
        Stable(0.5), 1.0, [1e-3, 1e-4], 65_536, RandomStream(25)
    )
    stats = [s for _, s, _ in report.points]
    assert stats[-1] > 700.0
    assert all(math.isfinite(s) for s in stats)
    assert stats[-1] == pytest.approx(10.0 * stats[0], rel=0.05)


def test_small_ball_reports_are_reproducible():
    a = check_small_ball(Stable(0.5), 1.0, [1e-2, 1e-3], 65_536, RandomStream(9))
    b = check_small_ball(Stable(0.5), 1.0, [1e-2, 1e-3], 65_536, RandomStream(9))
    assert a.points == b.points
    assert a.achieved == b.achieved


def test_small_ball_indicator_branch_runs():
    report = check_small_ball(
        TemperedStable(0.5, 1.0), 1.0, [0.3, 0.2, 0.1], 65_536, RandomStream(21)
    )
    assert len(report.points) == 3
    assert all(se > 0.0 for _, _, se in report.points)
    assert math.isfinite(report.achieved)


def test_small_ball_ladder_too_deep():
    with pytest.raises(LadderTooDeepError):
        check_small_ball(TemperedStable(0.5, 1.0), 1.0, [0.3, 1e-4], 4096, RandomStream(0))


def test_small_ball_threshold_outside_decay_regime():
    with pytest.raises(ValueError):
        check_small_ball(TemperedStable(0.5, 1.0), 1.0, [100.0, 50.0], 4096, RandomStream(0))


def test_small_ball_validation():
    with pytest.raises(ValueError):
        check_small_ball(Stable(0.5), 0.0, [1e-2, 1e-3], 64, RandomStream(0))
    with pytest.raises(ValueError):
        check_small_ball(Stable(0.5), 1.0, [1e-2], 64, RandomStream(0))


# -------------------------------------------------------- inverse moments


def test_inverse_moments_stable_exact_t_independence():
    report = check_inverse_moments(
        Stable(0.5), 1.0, [1e-2, 1e-4, 1e-6], 200_000, RandomStream(13)
    )
    assert report.target == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)
    assert report.passed
    # the rescaled statistic is the same functional of the same draws at
    # every rung, so the ladder is flat to rounding
    stats = [s for _, s, _ in report.points]
    assert stats[1] == pytest.approx(stats[0], rel=1e-12)
    assert stats[2] == pytest.approx(stats[0], rel=1e-12)
    for _, stat, se in report.points:
        assert abs(stat - report.target) <= max(4.0 * se, 0.02 * report.target)
    assert report.achieved == stats[2]
    assert report.tolerance == max(4.0 * report.points[2][2], 0.02 * report.target)


def test_inverse_moments_judge_every_rung_and_the_truncation(monkeypatch):
    # stub block means: (plain, truncated) moment per rung, stderr 1e-3
    target = 2.0 / math.sqrt(math.pi)

    def run(rungs, ladder=(1e-2, 1e-4)):
        means = iter(((m, 1e-3), (m_trunc, 0.0)) for m, m_trunc in rungs)
        monkeypatch.setattr(diagnostics, "run_blocks", lambda *args, **kwargs: next(means))
        return check_inverse_moments(Stable(0.5), 1.0, ladder, 64, RandomStream(0))

    on = run([(target, target), (target, target)])
    assert on.passed and (on.achieved, on.tolerance) == (target, 0.02 * target)
    # the first rung 10% off fails the check though the last one is on target
    off = run([(1.1 * target, 1.1 * target), (target, target)])
    assert not off.passed and off.achieved == 1.1 * target
    # a truncated moment at half the plain one fails the check as well
    cut = run([(target, target), (target, 0.5 * target)])
    assert not cut.passed and (cut.achieved, cut.tolerance) == (target, 0.02 * target)


def test_inverse_moments_second_order():
    report = check_inverse_moments(
        Stable(0.25), 2.0, [1e-4, 1e-6], 200_000, RandomStream(17)
    )
    assert report.target == pytest.approx(gamma_fn(3.0) / gamma_fn(1.5), rel=1e-14)
    assert report.passed


def test_inverse_moments_tempered_target_is_universal():
    report = check_inverse_moments(
        TemperedStable(0.5, 1.0), 1.0, [0.1], 2048, RandomStream(19)
    )
    assert report.target == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)


def test_inverse_moments_validation():
    with pytest.raises(ValueError):
        check_inverse_moments(Stable(0.5), 0.0, [1e-3], 64, RandomStream(0))
    with pytest.raises(ValueError):
        check_inverse_moments(Stable(0.5), 1.0, [], 64, RandomStream(0))


# ----------------------------------------------------------- report type


def test_ladder_report_rejects_unsorted_points():
    with pytest.raises(ValueError):
        LadderReport(((1e-3, 1.0, 0.0), (1e-2, 1.0, 0.0)), 1.0, 1.0, 0.0, True)
