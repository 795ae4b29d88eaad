"""Sampling of subordinator marginals D_t and inverse marginals E_t.

All variates derive from counter-based Philox streams keyed by (seed,
stream_key), so any draw sequence is reproducible bit-for-bit regardless of
scheduling. Stable variates use Kanter's representation (exact, no rejection);
tempered variates use exponential-tilt rejection; inverse variates use the
exact first-passage identity for stable exponents and a grid first-passage
walk with conditional bisection refinement otherwise; sample_clock picks the
subordinator or the inverse sampler by the kind of a TimeChangeSpec.
sample_untempered draws D_u at one clock time per path, which the duality
estimator of inverse clocks scores in place of the grid walk at small times.
run_blocks, the package's one Monte Carlo block driver, sits next to the
streams it keys; its multi-worker calls share one process pool per process,
made on first use and joined at interpreter exit.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .levy_exponents import LaplaceExponent, MixedStable, Stable, TemperedStable, phi_prime

_OPEN_EPS = 2.0**-54  # keeps uniforms strictly inside (0,1)
BLOCK = 32768


class RunawaySamplerError(RuntimeError):
    """Grid first-passage walk exceeded its step budget without crossing."""


class UnsupportedConfigurationError(ValueError):
    """Requested combination of exponent, domain, and kind is out of scope."""


class Kind(enum.Enum):
    SUBORDINATOR = "sub"
    INVERSE = "inv"


@dataclass(frozen=True)
class RandomStream:
    """Deterministic stream of variates, a pure function of (seed, stream_key).

    Distinct stream_keys give statistically independent streams; estimator
    drivers key them by path index so parallel schedules cannot change
    results.
    """

    seed: int
    stream_key: int = 0

    def __post_init__(self):
        key = np.array([self.seed & (2**64 - 1), self.stream_key & (2**64 - 1)], dtype=np.uint64)
        object.__setattr__(self, "_gen", np.random.Generator(np.random.Philox(key=key)))

    def uniforms(self, size=None):
        return self._gen.random(size)

    def exponentials(self, size=None):
        return self._gen.standard_exponential(size)

    def normals(self, size=None):
        return self._gen.standard_normal(size)

    def spawn(self, offset: int) -> "RandomStream":
        """Fresh stream for the path block starting at index offset."""
        return RandomStream(self.seed, self.stream_key + int(offset))


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo heat content or heat mass, and the heat lost by time t,
    which every small-time rate divides: |Omega| - value for a content, value
    itself for a regular heat mass H."""

    value: float
    deficit: float
    stderr: float
    n_paths: int
    seed: int
    wall_time: float


def combine_blocks(parts):
    """Pairwise-tree reduction of per-block (sum, sum of squares, count).

    The tree shape depends only on the block count, so the combined mean and
    stderr are bit-identical however the blocks were scheduled.
    """
    items = list(parts)
    if not items:
        raise ValueError("no blocks to combine")
    while len(items) > 1:
        merged = [
            (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            for a, b in zip(items[0::2], items[1::2])
        ]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    s, q, n = items[0]
    mean = s / n
    var = max(q / n - mean * mean, 0.0)
    if n > 1:
        var *= n / (n - 1.0)
    return mean, float(np.sqrt(var / n))


def _block_moments(task):
    kernel, args, stream, lo, size, n = task
    x = kernel(args, stream.spawn(lo), lo, size, n)
    return [(float(row.sum()), float((row * row).sum()), row.size) for row in np.atleast_2d(x)]


_pool = None  # the process's one worker pool, made by _worker_pool
_pool_size = 0


def _drop_pool():
    """Shut the worker pool down and join it, so that the next fork happens
    with no manager thread alive."""
    global _pool
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None


def _worker_pool(size):
    """The process's worker pool of size processes, made on first use; a
    pool of another size is dropped first."""
    global _pool, _pool_size
    if _pool_size != size:
        _drop_pool()
    if _pool is None:
        _pool, _pool_size = ProcessPoolExecutor(max_workers=size), size
    return _pool


def run_blocks(kernel, args, n, stream, workers=1):
    """Mean and stderr of n per-path values, computed in blocks of BLOCK paths.

    kernel(args, stream, lo, size, n) is a module-level function returning the
    values of paths lo .. lo+size-1, drawn from stream.spawn(lo), the block's
    own stream; a kernel may return several rows of values from the same
    draws, and then one (mean, stderr) pair per row is returned.  Blocks are
    combined by combine_blocks in block order, so results are bit-identical
    for any worker count.  With more than one worker and more than one block
    the blocks run in the process's one pool of min(workers, CPUs) processes,
    which every such call reuses; a call that breaks the pool drops it and
    re-raises BrokenProcessPool, and the next call starts a fresh one.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if n < 1:
        raise ValueError(f"need at least 1 path, got {n}")
    tasks = [(kernel, args, stream, lo, min(BLOCK, n - lo), n) for lo in range(0, n, BLOCK)]
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and len(tasks) > 1:
        try:
            parts = list(_worker_pool(workers).map(_block_moments, tasks))
        except BrokenProcessPool:
            _drop_pool()
            raise
    else:
        parts = [_block_moments(task) for task in tasks]
    rows = [combine_blocks(blocks) for blocks in zip(*parts)]
    return rows[0] if len(rows) == 1 else rows


def disjoint_spawns(stream, offsets, n):
    """stream.spawn(o) for each offset, as the streams of n-path run_blocks calls.

    Such a call reads the keys from its stream's key on, over n paths rounded
    up to whole blocks, since a kernel spawns only below the next block's key.
    Two ranges that overlap would share the draws of some blocks, and so
    correlate the two estimates: that raises ValueError instead.
    """
    span = BLOCK * -(-n // BLOCK)
    starts = sorted(offsets)
    for a, b in zip(starts, starts[1:]):
        if b - a < span:
            raise ValueError(
                f"stream keys {a} and {b} are {b - a} apart, but {n}-path runs read {span} keys each"
            )
    return [stream.spawn(o) for o in offsets]


@dataclass(frozen=True)
class TimeChangeSpec:
    """A subordinator or inverse-subordinator clock plus sampling strategy.

    grid_step is only consulted for grid-based inverse sampling; None means
    the default t * 1e-3 chosen at sampling time.  A set grid_step also keeps
    an inverse estimate on the grid walk instead of the duality estimator.
    """

    exponent: LaplaceExponent
    kind: Kind
    grid_step: float | None = None
    refine_bisections: int = 20

    def __post_init__(self):
        if self.grid_step is not None and not (self.grid_step > 0.0 and math.isfinite(self.grid_step)):
            raise ValueError(f"grid_step must be positive and finite, got {self.grid_step}")
        if self.refine_bisections < 0:
            raise ValueError("refine_bisections must be nonnegative")


def kanter_angle(u, beta: float):
    """Kanter's angle function A(u) on (0,1).

    A(u) = [sin(beta pi u)^beta sin((1-beta) pi u)^(1-beta) / sin(pi u)]
    raised to 1/(1-beta); S_1 = (A(U)/E)^((1-beta)/beta) for U uniform and E
    unit exponential (Kanter 1975).
    """
    # in place on two work arrays: each fresh block-sized temporary costs the
    # allocator a map and page faults, and the draws dominate the plain paths
    b = beta
    u = np.asarray(u, dtype=float)
    num = np.multiply(b * np.pi, u, out=np.empty(u.shape))
    np.sin(num, out=num)
    num **= b
    tmp = np.multiply((1.0 - b) * np.pi, u, out=np.empty(u.shape))
    np.sin(tmp, out=tmp)
    tmp **= 1.0 - b
    num *= tmp
    np.sin(np.multiply(np.pi, u, out=tmp), out=tmp)
    num /= tmp
    num **= 1.0 / (1.0 - b)
    return num[()]


def kanter_angle_min(beta: float) -> float:
    """A(0+) = (beta^beta (1-beta)^(1-beta))^(1/(1-beta)), the infimum of A on (0,1)."""
    return (beta**beta * (1.0 - beta) ** (1.0 - beta)) ** (1.0 / (1.0 - beta))


def kanter_angle_tail(v, beta: float):
    """A(1-v) evaluated without cancellation, valid down to v ~ 1e-300.

    Double precision loses sin(pi(1-v)) entirely for v below ~1e-16, so the
    sine arguments are expanded exactly around u = 1; importance-sampled
    estimators probe this corner.
    """
    b = beta
    sb, cb = np.sin(b * np.pi), np.cos(b * np.pi)
    s1b, c1b = np.sin((1.0 - b) * np.pi), np.cos((1.0 - b) * np.pi)
    n1 = sb * np.cos(b * np.pi * v) - cb * np.sin(b * np.pi * v)
    n2 = s1b * np.cos((1.0 - b) * np.pi * v) - c1b * np.sin((1.0 - b) * np.pi * v)
    den = np.sin(np.pi * v)
    return (n1**b * n2 ** (1.0 - b) / den) ** (1.0 / (1.0 - b))


def _kanter_variates(beta: float, stream: RandomStream, shape):
    """Kanter's A(U) and E of the given shape: S_1 = (A(U)/E)^((1-beta)/beta)."""
    u = stream.uniforms(shape)
    np.maximum(u, _OPEN_EPS, out=u)
    e = stream.exponentials(shape)
    np.maximum(e, 1e-300, out=e)
    return kanter_angle(u, beta), e


def _stable_block(beta: float, t: float, stream: RandomStream, shape):
    """iid S_t variates of the given shape via Kanter's representation."""
    s, e = _kanter_variates(beta, stream, shape)
    with np.errstate(over="ignore"):
        s /= e
        s **= (1.0 - beta) / beta
        s *= t ** (1.0 / beta)
    return np.minimum(s, 1e300, out=s)


def _tempered_block(beta: float, theta: float, t: float, stream: RandomStream, shape):
    """iid tempered-stable variates by chunked tilt rejection.

    Each chunk proposes a stable draw and accepts with probability e^(-theta X);
    the time axis is split so every chunk keeps acceptance >= 1/e.
    """
    n_chunks = max(1, math.ceil(t * theta**beta))
    tau = t / n_chunks
    total = np.zeros(shape, dtype=float).ravel()
    for _ in range(n_chunks):
        pending = np.arange(total.size)
        while pending.size:
            prop = _stable_block(beta, tau, stream, pending.size)
            acc = stream.uniforms(pending.size) <= np.exp(-theta * prop)
            total[pending[acc]] += prop[acc]
            pending = pending[~acc]
    return total.reshape(shape)


def _increment_block(exp: LaplaceExponent, h: float, stream: RandomStream, shape):
    """iid increments of D over time steps of length h, any catalog exponent.

    Tempered increments are accepted a whole row at a time with probability
    e^(-theta * row sum): the accepted joint density is proportional to the
    product of tempered densities, so rows are exact, and for the tiny h of a
    grid walk the rejection rate is ~h * len(row) * theta^beta.
    """
    if exp.theta == 0.0:
        return _stable_sum_block(exp.components, h, stream, shape)
    beta, theta = exp.beta, exp.theta
    row_time = h * (shape[1] if len(shape) > 1 else 1)
    if row_time * theta**beta > 0.5:
        return _tempered_block(beta, theta, h, stream, shape)
    inc = _stable_block(beta, h, stream, shape)
    if inc.ndim == 1:
        inc = inc[None, :]
    acc = stream.uniforms(inc.shape[0]) <= np.exp(-theta * inc.sum(axis=1))
    while not acc.all():
        bad = np.flatnonzero(~acc)
        prop = _stable_block(beta, h, stream, (bad.size, inc.shape[1]))
        inc[bad] = prop
        acc[bad] = stream.uniforms(bad.size) <= np.exp(-theta * prop.sum(axis=1))
    return inc.reshape(shape)


def _stable_sum_block(components, t: float, stream: RandomStream, shape):
    """Sum of independent stable marginals, one per (beta_i, w_i) component."""
    (b, w), *rest = components
    out = _stable_block(b, w * t, stream, shape)
    for b, w in rest:
        out += _stable_block(b, w * t, stream, shape)
    return out


def sample_untempered(exp: LaplaceExponent, u, stream: RandomStream):
    """D at per-path clock times u (an array) for exp without its tempering:
    one Kanter draw per component and path.  Weighted by the exponential
    tilt e^(u theta^b - theta D), the draws follow the tempered law."""
    u = np.asarray(u, dtype=float)
    return _stable_sum_block(exp.components, u, stream, u.shape)


def sample_subordinator(exp: LaplaceExponent, t: float, stream: RandomStream, size=None):
    """Marginal D_t for any catalog exponent: tilt rejection when tempered,
    otherwise a sum of independent stable components."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    shape = size if size is not None else 1
    if exp.theta > 0.0:
        out = _tempered_block(exp.beta, exp.theta, t, stream, shape)
    else:
        out = _stable_sum_block(exp.components, t, stream, shape)
    return float(out[0]) if size is None else out


def sample_stable(beta: float, t: float, stream: RandomStream, size=None):
    """Stable subordinator marginal S_t with E[e^(-s S_t)] = e^(-t s^beta)."""
    return sample_subordinator(Stable(beta), t, stream, size)


def sample_tempered(beta: float, theta: float, t: float, stream: RandomStream, size=None):
    """Tempered stable marginal for phi(s) = (s+theta)^beta - theta^beta."""
    return sample_subordinator(TemperedStable(beta, theta), t, stream, size)


def sample_mixed(components, t: float, stream: RandomStream, size=None):
    """Sum of independent stable marginals, one per (beta_i, w_i) component."""
    return sample_subordinator(MixedStable(tuple(components)), t, stream, size)


_STEP_GUARD = 10**9
_REFINE_TRIES = 64


def _refine_crossing(exp, gap, h, levels, stream, tries=_REFINE_TRIES):
    """Bisection refinement of first-passage positions inside a crossing step.

    Each halving resamples the step as two half-step increments conditioned on
    the step still crossing the remaining gap (redraw until the pair sum
    exceeds the gap; for tempered exponents the tilt acceptance is folded into
    the same test, which is a valid rejection sampler for the conditional
    pair). The crossing half is kept and recursed into. When the conditioning
    event is too rare to hit within the try budget (jump-dominated crossings)
    refinement stops and the current left endpoint stands, so the position
    error is at most the current half-width.
    """
    n = gap.size
    offset = np.zeros(n)
    active = np.arange(n)
    g = gap.copy()
    hh = float(h)
    theta = exp.theta
    for _ in range(levels):
        if active.size == 0:
            break
        hh *= 0.5
        m = active.size
        x1 = _stable_sum_block(exp.components, hh, stream, (m, tries))
        x2 = _stable_sum_block(exp.components, hh, stream, (m, tries))
        tot = x1 + x2
        ok = tot > g[active, None]
        if theta > 0.0:
            ok &= stream.uniforms((m, tries)) <= np.exp(-theta * tot)
        hit = ok.any(axis=1)
        first = np.argmax(ok, axis=1)
        x1_sel = x1[np.arange(m), first]
        keep = active[hit]
        x1_keep = x1_sel[hit]
        second_half = x1_keep <= g[keep]
        moved = keep[second_half]
        offset[moved] += hh
        g[moved] -= x1_keep[second_half]
        active = keep
    return offset


def _grid_inverse_block(exp, t, grid_step, refine, stream, n):
    """First-passage positions E_t for n paths by a grid walk at grid_step.

    The walk accumulates iid increments until the running sum exceeds t and
    returns the (refined) left endpoint of the crossing step. All paths in the
    block advance in lockstep waves so the draw sequence is deterministic.
    """
    h = float(grid_step)
    # predicted crossing takes about t / (h phi'(0+)) steps; when the clock
    # has finite mean rate that estimate is sharp, so refuse upfront instead
    # of crawling to the in-loop guard
    mean_rate = phi_prime(exp, 1e-300)
    if np.isfinite(mean_rate) and t / (h * mean_rate) > _STEP_GUARD:
        raise RunawaySamplerError(
            f"crossing t={t:g} needs about {t / (h * mean_rate):.1e} steps of "
            f"size {h:g}; the guard is {_STEP_GUARD:.0e}"
        )
    result = np.zeros(n)
    gap_left = np.zeros(n)
    d = np.zeros(n)
    alive = np.arange(n)
    steps_done = 0
    while alive.size:
        k = int(max(64, min(4096, 4_000_000 // alive.size)))
        if exp.theta > 0.0:
            k = max(1, min(k, int(0.5 / (h * exp.theta**exp.beta)) or 1))
        if steps_done + k > _STEP_GUARD:
            raise RunawaySamplerError(
                f"no crossing of t={t:g} within {_STEP_GUARD:.0e} steps of size {h:g}"
            )
        inc = _increment_block(exp, h, stream, (alive.size, k))
        cs = d[alive, None] + np.cumsum(inc, axis=1)
        crossed = cs[:, -1] > t
        first = np.argmax(cs > t, axis=1)
        rows = np.flatnonzero(crossed)
        if rows.size:
            paths = alive[rows]
            j = first[rows]
            result[paths] = (steps_done + j) * h
            left_val = np.where(j > 0, cs[rows, np.maximum(j - 1, 0)], d[paths])
            gap_left[paths] = t - left_val
        d[alive] = cs[:, -1]
        alive = alive[~crossed]
        steps_done += k
    if refine > 0:
        result += _refine_crossing(exp, gap_left, h, refine, stream)
    return result


def sample_inverse(spec: TimeChangeSpec, t: float, stream: RandomStream, size=None):
    """Inverse-subordinator marginal E_t = inf{u : D_u > t}.

    Exact for stable exponents via E_t = (t / S_1)^beta; grid first passage
    with conditional bisection refinement otherwise. Raises
    RunawaySamplerError if a walk exceeds 1e9 steps without crossing.
    At small beta the power (1-beta)/beta of S_1 = (A/E)^((1-beta)/beta)
    leaves double range; where S_1 or t/S_1 is not a normal float, or S_1
    reaches the 1e300 cap, E_t = t^beta (E/A)^(1-beta) comes from the same
    Kanter variates without it.
    """
    if spec.kind is not Kind.INVERSE:
        raise ValueError("sample_inverse requires an InverseSubordinator spec")
    if not t > 0.0:
        raise ValueError("t must be positive")
    n = 1 if size is None else int(size)
    exp = spec.exponent
    if isinstance(exp, Stable):
        b = exp.beta
        a, e = _kanter_variates(b, stream, n)
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            s = np.divide(a, e)
            s **= (1.0 - b) / b
            np.minimum(s, 1e300, out=s)
            out = np.divide(t, s)
            lost = s >= 1e300
            lost |= ~np.isfinite(out)
            lost |= np.minimum(s, out, out=s) < np.finfo(float).tiny
            out **= b
        out[lost] = t**b * (e[lost] / a[lost]) ** (1.0 - b)
    else:
        h = spec.grid_step if spec.grid_step is not None else t * 1e-3
        out = _grid_inverse_block(exp, t, h, spec.refine_bisections, stream, n)
    return float(out[0]) if size is None else out


def sample_clock(spec: TimeChangeSpec, t: float, stream: RandomStream, n):
    """Clock value at time t: D_t for a subordinator spec, E_t for an inverse one."""
    if spec.kind is Kind.SUBORDINATOR:
        return sample_subordinator(spec.exponent, t, stream, n)
    return sample_inverse(spec, t, stream, n)
