"""Sampling of subordinator marginals D_t and inverse marginals E_t.

All variates derive from counter-based Philox streams keyed by (seed,
stream_key), so any draw sequence is reproducible bit-for-bit regardless of
scheduling. Stable variates use Kanter's representation (exact, no rejection),
and every stable marginal S_t, plain (_stable_block), from net columns
(stable_from_uniforms) or from the importance proposal's tail angles
(kanter_ratio_tail), or a leading component of sample_untempered_below, is
formed by one function, _kanter_stable, as one power of one product of the
Kanter ratio A^(1-beta), so no value leaves double range unless S_t does;
tempered variates, marginals and grid-walk increments alike, go through one
exponential-tilt rejection loop, _tilted_rows, called by _subordinator_block;
inverse variates use the exact first-passage identity for stable exponents and
a grid first-passage walk with conditional bisection refinement otherwise;
sample_clock picks the subordinator or the inverse sampler by the kind of a
TimeChangeSpec.
sobol_uniforms draws scrambled Sobol nets (Joe-Kuo direction numbers,
Matousek's linear scramble and a digital shift, all randomness from the
stream), which the importance-sampled estimator feeds its clock draws with.
sample_untempered_below draws D_u given D_u < t at one clock time per path,
with the conditional probability of that event, which the duality estimator
of inverse clocks scores in place of the grid walk at small times.
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

from .levy_exponents import LaplaceExponent, Stable, TemperedStable, phi_prime

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

    def words(self, size=None):
        """Uniform random 64-bit words."""
        return self._gen.bit_generator.random_raw(size)

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


# Joe-Kuo (2008) Sobol m-values m_1..m_12 of the first eight dimensions, the
# first being van der Corput's; as in scipy.stats.qmc.Sobol, direction number
# j has the bits of m_j ending at bit j from the top of a 12-bit word
_SOBOL_M = (
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1, 3, 5, 15, 17, 51, 85, 255, 257, 771, 1285, 3855),
    (1, 3, 3, 9, 29, 23, 71, 197, 209, 627, 1907, 1369),
    (1, 3, 1, 5, 31, 29, 81, 147, 433, 149, 719, 3693),
    (1, 1, 1, 11, 31, 55, 61, 157, 181, 191, 1291, 3851),
    (1, 1, 3, 3, 25, 9, 43, 251, 449, 449, 1347, 323),
    (1, 3, 5, 13, 11, 37, 31, 227, 381, 143, 241, 3889),
    (1, 1, 5, 5, 17, 9, 9, 45, 237, 633, 65, 1601),
)
SOBOL_LOG2_MAX = len(_SOBOL_M[0])  # nets of up to 2^12 points
SOBOL_DIMS = len(_SOBOL_M)
_FRACTION_BITS = 52
_SOBOL_DIRECTIONS = np.array(_SOBOL_M, dtype=np.uint64) << np.arange(SOBOL_LOG2_MAX - 1, -1, -1, dtype=np.uint64)
_ONE_BITS = np.float64(1.0).view(np.uint64)  # exponent bits of [1, 2)


def _xor_span(v):
    """XOR of every subset of the words along v's last axis: entry i of the
    result XORs the words at the set bits of i."""
    out = np.zeros(v.shape[:-1] + (1,), dtype=np.uint64)
    for j in range(v.shape[-1]):
        out = np.concatenate((out, out ^ v[..., j : j + 1]), axis=-1)
    return out


def sobol_net(log2_points, directions=_SOBOL_DIRECTIONS, shift=np.uint64(0), out=None):
    """Words of the first 2^log2_points Sobol points in natural order, each
    XORed with shift, for each row of direction numbers; written to out if
    given, an array of the result's size.

    Point i XORs the direction numbers at the set bits of i, so it is
    T_hi[i >> k] ^ T_lo[i & (2^k - 1)]: one broadcast XOR per point and
    dimension, of two tables of at most 64 words each.
    """
    k = min(log2_points, 6)
    lo = _xor_span(directions[..., :k]) ^ shift
    hi = _xor_span(directions[..., k:log2_points])
    if out is not None:
        out = out.reshape(hi.shape + lo.shape[-1:])
    return np.bitwise_xor(hi[..., :, None], lo[..., None, :], out=out).reshape(directions.shape[:-1] + (-1,))


def sobol_uniforms(stream: RandomStream, dims: int, reps: int, log2_points: int):
    """Uniforms strictly inside (0, 1), shaped (dims, reps * 2^log2_points):
    along each row, reps independent randomizations of the first
    2^log2_points points of a Sobol sequence, one after the other.

    Each randomization is Matousek's linear matrix scramble plus a digital
    shift of the 52 fraction bits, both drawn from stream, which makes every
    point uniform on the unit cube and keeps each net's stratification: each
    coordinate of a net has exactly one point in each interval
    [k/2^m, (k+1)/2^m).  Only the m direction numbers the points use are
    scrambled.  Rows past the SOBOL_DIMS checked-in dimensions are Philox
    uniforms, so any number of rows is still an unbiased draw.
    """
    m, q = log2_points, min(dims, SOBOL_DIMS)
    if not 0 <= m <= SOBOL_LOG2_MAX:
        raise ValueError(f"nets hold 1 to 2^{SOBOL_LOG2_MAX} points, got 2^{m}")
    # column b of the lower-triangular scramble: bit b from the top, random bits below it
    lead = np.uint64(1) << np.arange(_FRACTION_BITS - 1, _FRACTION_BITS - 1 - m, -1, dtype=np.uint64)
    cols = stream.words((q, reps, m)) & (lead - np.uint64(1)) | lead
    # top bits of each direction number, as a (dims, m, m) mask over the columns
    top = _SOBOL_DIRECTIONS[:q, :m, None] >> np.arange(SOBOL_LOG2_MAX - 1, SOBOL_LOG2_MAX - 1 - m, -1, dtype=np.uint64)
    uses = (top & np.uint64(1)).astype(bool)[:, None]
    scrambled = np.bitwise_xor.reduce(np.where(uses, cols[:, :, None, :], np.uint64(0)), axis=-1)
    shift = stream.words((q, reps, 1)) >> np.uint64(64 - _FRACTION_BITS) | _ONE_BITS
    out = np.empty((dims, reps << m))
    # the words are the fraction bits x of 1 + x 2^-52; taking 1 - 2^-53 off
    # leaves (x + 1/2) 2^-52, exactly, in [2^-53, 1 - 2^-53]
    sobol_net(m, scrambled, shift, out[:q].view(np.uint64))
    out[:q] -= 1.0 - 2.0**-53
    if dims > q:
        out[q:] = np.maximum(stream.uniforms((dims - q, reps << m)), _OPEN_EPS)
    return out


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
    own stream, or the means of independent replicates of them; a kernel may
    return several rows of values from the same draws, and then one
    (mean, stderr) pair per row is returned.  Blocks are
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
    if workers > 1:
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

    def __post_init__(self):
        if self.grid_step is not None and not (self.grid_step > 0.0 and math.isfinite(self.grid_step)):
            raise ValueError(f"grid_step must be positive and finite, got {self.grid_step}")


def _kanter_ratio(u, beta: float):
    """A(u)^(1-beta) = sin(beta pi u)^beta sin((1-beta) pi u)^(1-beta) / sin(pi u)."""
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
    return num


def kanter_angle(u, beta: float):
    """Kanter's angle function A(u) on (0,1).

    A(u) = [sin(beta pi u)^beta sin((1-beta) pi u)^(1-beta) / sin(pi u)]
    raised to 1/(1-beta); S_1 = (A(U)/E)^((1-beta)/beta) for U uniform and E
    unit exponential (Kanter 1975).
    """
    num = _kanter_ratio(u, beta)
    num **= 1.0 / (1.0 - beta)
    return num[()]


def kanter_angle_min(beta: float) -> float:
    """A(0+) = (beta^beta (1-beta)^(1-beta))^(1/(1-beta)), the infimum of A on (0,1)."""
    return (beta**beta * (1.0 - beta) ** (1.0 - beta)) ** (1.0 / (1.0 - beta))


def kanter_ratio_tail(v, beta: float):
    """The Kanter ratio A(1-v)^(1-beta), evaluated without cancellation,
    valid down to v ~ 1e-300.

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
    return n1**b * n2 ** (1.0 - b) / den


def _kanter_variates(beta: float, stream: RandomStream, shape):
    """The Kanter ratio A(U)^(1-beta) and E of the given shape, for U uniform
    and E unit exponential: S_1 = (A(U)/E)^((1-beta)/beta)."""
    u = stream.uniforms(shape)
    np.maximum(u, _OPEN_EPS, out=u)
    e = stream.exponentials(shape)
    np.maximum(e, 1e-300, out=e)
    return _kanter_ratio(u, beta), e


def _stable_block(beta: float, t: float, stream: RandomStream, shape):
    """iid S_t variates of the given shape via Kanter's representation."""
    return _kanter_stable(beta, t, *_kanter_variates(beta, stream, shape))


def stable_from_uniforms(beta: float, t: float, u, w):
    """S_t from uniforms u and w strictly inside (0, 1), one per value: the
    Kanter ratio at u and the exponential variate E = -log w."""
    return _kanter_stable(beta, t, _kanter_ratio(u, beta), -np.log(w))


def _kanter_stable(beta: float, t, ratio, e):
    """S_t = (t ratio / e^(1-beta))^(1/beta) from the Kanter ratio
    ratio = A^(1-beta) and the exponential variate e, capped at 1e300; t is a
    time or an array of them, one per value.

    One power of one product, which leaves double range only where S_t
    itself does, at any beta and t.  The product is formed in place on
    ratio, which the caller hands over fresh, so the only block-sized
    temporary is e^(1-beta).
    """
    with np.errstate(over="ignore"):
        ratio *= t
        ratio /= e ** (1.0 - beta)
        ratio **= 1.0 / beta
    return np.minimum(ratio, 1e300, out=ratio)


_ROW_TILT = 0.5  # largest k h theta^b at which rows of k increments are accepted whole


def _tilted_rows(beta: float, theta: float, h: float, stream: RandomStream, shape):
    """Rows of iid tempered increments over steps of length h, by tilt rejection.

    A row of stable increments is accepted whole with probability
    e^(-theta * row sum): the accepted joint density is proportional to the
    product of tempered densities, so the rows are exact.  Rejected rows are
    redrawn until every row is accepted.
    """
    inc = _stable_block(beta, h, stream, shape)
    acc = stream.uniforms(shape[0]) <= np.exp(-theta * inc.sum(axis=1))
    while not acc.all():
        bad = np.flatnonzero(~acc)
        prop = _stable_block(beta, h, stream, (bad.size, shape[1]))
        inc[bad] = prop
        acc[bad] = stream.uniforms(bad.size) <= np.exp(-theta * prop.sum(axis=1))
    return inc


def _subordinator_block(exp: LaplaceExponent, h: float, stream: RandomStream, shape):
    """iid increments of D over time steps of length h, any catalog exponent.

    Tempered increments come from _tilted_rows.  The rows of a 2-D shape
    (paths, k) are accepted whole while k h theta^b <= _ROW_TILT, so a grid
    walk rejects a row with probability 1 - e^(-k h theta^b) <= 1 - e^(-1/2);
    otherwise each value is a row of its own, drawn over ceil(h theta^b)
    chunks of the step, so that every chunk keeps acceptance >= 1/e.
    """
    if exp.theta == 0.0:
        return _stable_sum_block(exp.components, h, stream, shape)
    beta, theta = exp.beta, exp.theta
    if isinstance(shape, tuple) and len(shape) == 2 and h * shape[1] * theta**beta <= _ROW_TILT:
        return _tilted_rows(beta, theta, h, stream, shape)
    n_chunks = max(1, math.ceil(h * theta**beta))
    total = np.zeros(shape)
    for _ in range(n_chunks):
        total += _tilted_rows(beta, theta, h / n_chunks, stream, (total.size, 1)).reshape(total.shape)
    return total


def _stable_sum_block(components, t: float, stream: RandomStream, shape):
    """Sum of independent stable marginals, one per (beta_i, w_i) component."""
    (b, w), *rest = components
    out = _stable_block(b, w * t, stream, shape)
    for b, w in rest:
        out += _stable_block(b, w * t, stream, shape)
    return out


def sample_untempered_below(exp: LaplaceExponent, u, t: float, stream: RandomStream):
    """D at per-path clock times u (an array) for exp without its tempering,
    drawn given D < t, and the probability p of D < t given the draws.

    A component (b, w) in Kanter form is (w u rho / E^(1-b))^(1/b), with
    rho = A(U)^(1-b).  Every component but the last is drawn so, to d, by
    _kanter_stable.  The last is below r = t - d exactly when E exceeds
    e* = (w u rho / r^b)^(1/(1-b)), so p = e^-e* (0 where d >= t) and, E
    being memoryless, E = e* + Exp(1) draws it given D < t.  Each is one
    power of a product, as in _kanter_stable, so nothing leaves double range
    near b = 0 or b = 1.  Weighted by p and the exponential tilt
    e^(u theta^b - theta D), the draws score P(D_u < t) under the tempered law.
    """
    u = np.asarray(u, dtype=float)
    *rest, (b, w) = exp.components
    d = 0.0
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        for b_i, w_i in rest:
            d = d + _kanter_stable(b_i, w_i * u, *_kanter_variates(b_i, stream, u.shape))
        wu_rho = _kanter_ratio(np.maximum(stream.uniforms(u.shape), _OPEN_EPS), b)
        wu_rho *= u
        wu_rho *= w
        e_star = (wu_rho / np.maximum(t - d, 0.0) ** b) ** (1.0 / (1.0 - b))
        p = np.exp(-e_star)
        e_star += stream.exponentials(u.shape)
        wu_rho /= e_star ** (1.0 - b)
        wu_rho **= 1.0 / b
        wu_rho += d
    return wu_rho, p


def sample_subordinator(exp: LaplaceExponent, t: float, stream: RandomStream, size=None):
    """Marginal D_t for any catalog exponent: tilt rejection when tempered,
    otherwise a sum of independent stable components."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    out = _subordinator_block(exp, t, stream, size if size is not None else 1)
    return float(out[0]) if size is None else out


def sample_stable(beta: float, t: float, stream: RandomStream, size=None):
    """Stable subordinator marginal S_t with E[e^(-s S_t)] = e^(-t s^beta)."""
    return sample_subordinator(Stable(beta), t, stream, size)


def sample_tempered(beta: float, theta: float, t: float, stream: RandomStream, size=None):
    """Tempered stable marginal for phi(s) = (s+theta)^beta - theta^beta."""
    return sample_subordinator(TemperedStable(beta, theta), t, stream, size)


_STEP_GUARD = 10**9
_REFINE_BISECTIONS = 20  # halvings of the crossing step in a grid inverse draw
_REFINE_TRIES = 64


def _refine_crossing(exp, gap, h, levels, stream):
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
        x1 = _stable_sum_block(exp.components, hh, stream, (m, _REFINE_TRIES))
        x2 = _stable_sum_block(exp.components, hh, stream, (m, _REFINE_TRIES))
        tot = x1 + x2
        ok = tot > g[active, None]
        if theta > 0.0:
            ok &= stream.uniforms((m, _REFINE_TRIES)) <= np.exp(-theta * tot)
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
            k = max(1, min(k, int(_ROW_TILT / (h * exp.theta**exp.beta)) or 1))
        if steps_done + k > _STEP_GUARD:
            raise RunawaySamplerError(
                f"no crossing of t={t:g} within {_STEP_GUARD:.0e} steps of size {h:g}"
            )
        inc = _subordinator_block(exp, h, stream, (alive.size, k))
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

    Exact for stable exponents via E_t = (t / S_1)^beta, formed from the
    Kanter variates as t^beta E^(1-beta) / A^(1-beta): no power of S_1 is
    taken, so E_t leaves double range only where it does itself, also
    where S_1 is past it.  Grid first passage with conditional bisection refinement
    otherwise.  Raises RunawaySamplerError if a walk exceeds 1e9 steps
    without crossing.
    """
    if spec.kind is not Kind.INVERSE:
        raise ValueError("sample_inverse requires an InverseSubordinator spec")
    if not t > 0.0:
        raise ValueError("t must be positive")
    n = 1 if size is None else int(size)
    exp = spec.exponent
    if isinstance(exp, Stable):
        b = exp.beta
        ratio, e = _kanter_variates(b, stream, n)
        out = np.power(e, 1.0 - b, out=e)
        out *= t**b
        out /= ratio
    else:
        h = spec.grid_step if spec.grid_step is not None else t * 1e-3
        out = _grid_inverse_block(exp, t, h, _REFINE_BISECTIONS, stream, n)
    return float(out[0]) if size is None else out


def sample_clock(spec: TimeChangeSpec, t: float, stream: RandomStream, n):
    """Clock value at time t: D_t for a subordinator spec, E_t for an inverse one."""
    if spec.kind is Kind.SUBORDINATOR:
        return sample_subordinator(spec.exponent, t, stream, n)
    return sample_inverse(spec, t, stream, n)
