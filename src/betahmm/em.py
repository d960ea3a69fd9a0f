"""Expectation-maximization baseline for binomial HMMs.

Forward-backward uses scaled messages (per-position normalizers, not log
space), betas scaled so that alpha_t . beta_t = 1, in two passes over steps
of ``_STEP`` rows whose transitions go in blocks of B = isqrt(S - 1) // 2
rows, S = min(L, ``_STEP``). Pass 1 (:func:`_pass1`) computes each step's
emissions and every block's transfer and keeps only those K m x m matrices;
one doubling scan, forward from alpha_0 and backward from a uniform beta
stacked in one array, gives every block-start alpha, every block-end beta
and the log-likelihood. It is all that :func:`log_likelihood` runs. Pass 2
(:func:`_pass2`), run only before an M-step, walks alpha forward and beta
backward inside every block of a step in the same rounds, the last step
first, and the M-step sums that step's share. An iteration thus makes about
2 B rounds of numpy calls a step and log2(K) for the scan, which composes
``_CHUNK`` blocks a call. Beyond the counts it holds the transfers and one
step's arrays, each step's released before the next one's are made: 3.6 B
a row at 4 states from 32 to 128 steps, on top of about 5 MB for the step.
Emissions multiply one binomial likelihood per cell type, treating cells as
conditionally independent given the shared hidden state. The module needs
numpy alone: the binomial coefficients come from ``math.lgamma`` once per
count value, and a fit computes them once.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError, ParameterError
from .model import _STEP, CountSequence, HmmParams, _check_em_settings, _check_integer

__all__ = ["EmConfig", "EmTrace", "log_likelihood", "em_fit", "random_init"]


@dataclass(frozen=True)
class EmConfig:
    """Fitting controls for :func:`em_fit`.

    ``rel_ll_tolerance`` stops the loop once the fractional log-likelihood
    improvement drops below it; zero disables early stopping so exactly
    ``max_iters`` iterations run. ``init`` warm-starts from given parameters,
    otherwise a seeded random initialization is drawn.
    """

    max_iters: int = 100
    rel_ll_tolerance: float = 0.001
    seed: int | None = None
    init: HmmParams | None = None

    def __post_init__(self) -> None:
        _check_em_settings(self.max_iters, self.rel_ll_tolerance, self.seed)


@dataclass(eq=False)
class EmTrace:
    """Fit record: log-likelihoods, seconds since the previous one, final parameters."""

    log_likelihoods: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    params: HmmParams | None = None
    iterations: int = 0


def random_init(num_states: int, num_cells: int, rng: np.random.Generator) -> HmmParams:
    """Random starting point: flat-Dirichlet distributions, probabilities in [0.05, 0.95]."""
    alpha = np.ones(num_states)
    pi = rng.dirichlet(alpha)
    T = np.column_stack([rng.dirichlet(alpha) for _ in range(num_states)])
    p = rng.uniform(0.05, 0.95, size=(num_cells, num_states))
    return HmmParams(initial_dist=pi, transition=T, meth_probs=p)


def emission_log_probs(params: HmmParams, seq: CountSequence) -> np.ndarray:
    """Log emission probabilities, shape (length, num_states).

    Entry (t, h) is the log probability of every cell's counts at position t
    given state h, including binomial coefficients.
    """
    p = params.cell_probs()
    if p.shape[0] != seq.num_cells:
        raise ParameterError(f"model carries {p.shape[0]} cell(s) but data carries {seq.num_cells}")
    out = _count_log_probs(p, seq)
    out += _log_choose(seq)
    return out.T


def _log_choose(seq: CountSequence) -> np.ndarray:
    """Sum over cells of log C(c, mu) at each position, shape (length,).

    ``math.lgamma`` runs once per count value: over 0 .. max when that range
    is no longer than the counts, otherwise over the distinct values only.
    """
    counts = np.stack([seq.coverage, seq.meth, seq.coverage - seq.meth])
    top = int(counts.max(initial=0))
    if top < counts.size:
        values, index = np.arange(top + 1), counts
    else:
        values, index = np.unique(counts, return_inverse=True)
        index = index.reshape(counts.shape)
    lg = np.array([math.lgamma(v + 1) for v in values.tolist()])[index]
    return (lg[0] - lg[1] - lg[2]) @ np.ones(seq.num_cells)


def _count_log_probs(p: np.ndarray, seq: CountSequence) -> np.ndarray:
    """mu log p + (c - mu) log(1 - p) summed over cells, shape (num_states, length).

    ``p`` is (num_cells, num_states). As in ``binom.logpmf``, 0 log 0 counts
    as 0 and a positive count against a probability of 0 gives -inf.
    """
    zero, one = p == 0.0, p == 1.0
    with np.errstate(divide="ignore"):
        log_p = np.where(zero, 0.0, np.log(p))
        log_q = np.where(one, 0.0, np.log1p(-p))
    cov, meth = seq.coverage.T, seq.meth.T
    mu = meth.astype(np.float64)
    rest = cov.astype(np.float64)
    rest -= mu
    out = log_p.T @ mu
    out += log_q.T @ rest
    if zero.any() or one.any():
        out[zero.T @ (meth > 0) | one.T @ (cov > meth)] = -np.inf
    return out


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)`` by one ``np.maximum`` per column.

    numpy reduces a short last axis several times slower than it runs a few
    whole-column calls, so the walks below hold a state a column.
    """
    top = x[..., 0].copy()
    for k in range(1, x.shape[-1]):
        np.maximum(top, x[..., k], out=top)
    return top


# the least positive float: dividing a zero sum by it leaves the zero row
_TINY = 5e-324


def _compose(a1, s1, a2, s2) -> tuple[np.ndarray, np.ndarray]:
    """The walk through transfers (a1, s1), then (a2, s2), as one transfer.

    A transfer (A, s) has shapes (..., m, m) and (..., m): row i of A is basis
    vector i walked through some steps with its sum scaled to 1, and s[i] is
    the log of that scale. Each row's weights on the rows of a2 are shifted by
    their own maximum in log space, so no row underflows against another. A
    dead row (zero, scale -inf) stays zero and never turns into nan.
    """
    m = a2.shape[-1]
    weights = np.log(a1)
    weights += s2[..., None, :]
    top = _row_max(weights)
    weights -= np.where(np.isfinite(top), top, 0.0)[..., None]
    product = np.exp(weights, out=weights) @ a2
    row_sums = (product.reshape(-1, m) @ np.ones(m)).reshape(product.shape[:-1])
    product /= np.maximum(row_sums, _TINY)[..., None]
    return product, s1 + top + np.log(row_sums)


# blocks that one call of the scan composes: about 1 MB a (2, C, m, m) term at 4 states
_CHUNK = 4096


def _chunks(lo: int, hi: int):
    """Slices of at most ``_CHUNK`` blocks over lo .. hi - 1, the highest first."""
    for top in range(hi, lo, -_CHUNK):
        yield slice(max(top - _CHUNK, lo), top)


def _steps(length: int) -> tuple[int, list]:
    """The block size B and each step's (a, hi, K): K blocks over rows a + 1 .. hi - 1.

    Row a is the step before's last (row 0 in step 0). Block k holds local
    rows 1 + k B .. (k + 1) B, the last one stopping at n = hi - 1 - a.
    """
    size = max(math.isqrt(min(length, _STEP) - 1) // 2, 1)
    rows = [(max(lo - 1, 0), min(lo + _STEP, length)) for lo in range(0, length, _STEP)]
    # at length 1, one block whose step is cut
    return size, [(a, hi, max(-(-(hi - a - 1) // size), 1)) for a, hi in rows]


def _shifted(log_b: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Emissions, a row a column, over each row's maximum and padded with ones to
    ``width`` columns, so row 1 + k B + j of every block is in ``b[:, 1 + j :: B]``;
    and the maxima."""
    shift = log_b.max(axis=0)
    if not np.all(np.isfinite(shift)):
        raise NumericalError("some position has zero probability under every state; likelihood is -inf")
    b = np.empty((log_b.shape[0], width))
    rows = b[:, : log_b.shape[1]]
    np.exp(np.subtract(log_b, shift, out=rows), out=rows)
    b[:, log_b.shape[1] :] = 1.0
    return b, shift


def _transfers(b: np.ndarray, T: np.ndarray, n: int, size: int, blocks: int):
    """Every block's transfer (A, s) over local rows 1 .. n, shapes (K, m, m) and (K, m).

    Row i of A[k] is basis vector i stepped through block k's rows as
    alpha_t ~ (T alpha_{t-1}) * b_t, renormalized at each step with its log
    scale kept in s[k, i], so a row the data disfavour does not underflow
    against another. The short last block is kept as it stood after its rows.
    """
    m = T.shape[0]
    short = n - size * (blocks - 1)  # the last block's rows: 0 at length 1
    state = np.repeat(np.eye(m)[:, :, None], blocks, axis=2)  # [s, i, k]
    log_scale = np.zeros((m, blocks))
    flat, ones = state.reshape(m, -1), np.ones(m)
    for j in range(size):
        if j == short:
            kept = state[:, :, -1].copy(), log_scale[:, -1].copy()
        moved = (T @ flat).reshape(m, m, blocks)
        moved *= b[:, 1 + j :: size][:, None, :]
        sums = ones @ moved.reshape(m, -1)
        log_scale += np.log(sums).reshape(m, blocks)
        np.divide(moved.reshape(m, -1), np.maximum(sums, _TINY), out=flat)
    if short < size:
        state[:, :, -1], log_scale[:, -1] = kept
    return state.transpose(2, 1, 0), log_scale.T


def _pass1(pi: np.ndarray, T: np.ndarray, seq: CountSequence, emissions) -> tuple:
    """Log-likelihood from every block's transfer, with no per-position walk.

    ``emissions(rows)`` gives a slice's log emissions, a row a column. As row
    vectors alpha_t ~ alpha_{t-1} M_t with M_t = T.T diag(b_t) and
    beta_{t-1} ~ beta_t M_t.T, so one doubling scan walks alpha_0 forward
    through the transfers M_k and a uniform beta_{L-1} back through their
    transposes. Returns (log-likelihood, bounds, the last step's emissions):
    bounds[0, k] is alpha before block k and bounds[1, k] beta after block
    K - 1 - k, each summing to 1.
    """
    m = pi.shape[0]
    size, steps = _steps(len(seq))
    blocks = sum(count for *_, count in steps)
    mats = np.empty((2, blocks + 1, m, m))
    logs = np.zeros((2, blocks + 1, m))
    shifts, k = 0.0, 1
    with np.errstate(divide="ignore", invalid="ignore"):
        for a, hi, count in steps:
            b = shift = None  # the step before's emissions go before this step's are made
            b, shift = _shifted(emissions(seq[a:hi]), 1 + count * size)
            shifts += shift[1 if a else 0 :].sum()  # row a is the step before's last
            if a == 0:
                first = pi * b[:, 0]
            mats[0, k : k + count], logs[0, k : k + count] = _transfers(b, T, hi - a - 1, size, count)
            k += count
        # M_k = diag(e^s) A, so row j of M_k.T is column j of A weighted by e^s;
        # ordered from the last block back to the first
        for rows in _chunks(1, blocks + 1):
            back = slice(blocks + 1 - rows.start, blocks + 1 - rows.stop, -1)
            mats[1, rows], logs[1, rows] = _compose(
                mats[0, back].transpose(0, 2, 1), 0.0, np.eye(m), logs[0, back]
            )
        scale = first.sum()
        mats[0, 0], mats[1, 0] = first / scale, 1.0 / m  # each maps every row to its start
        shift = 1
        while shift <= blocks:
            # the highest chunk first, so each reads only blocks this round has not written
            for rows in _chunks(shift, blocks + 1):
                before = slice(rows.start - shift, rows.stop - shift)
                mats[:, rows], logs[:, rows] = _compose(
                    mats[:, before], logs[:, before], mats[:, rows], logs[:, rows]
                )
            shift *= 2
        log_like = float(shifts + np.log(scale) + logs[0, blocks, 0])
    bounds = mats[:, :, 0].copy()
    if not math.isfinite(log_like):  # on this path only, the forward walk names the position
        for a, _, _, scales, _ in _walks(T, seq, emissions, bounds, backward=False):
            scales[0] = scale if a == 0 else 1.0  # row a > 0 is the step before's
            bad = ~np.isfinite(scales) | (scales <= 0.0)
            if np.any(bad):
                raise NumericalError(f"forward pass underflowed at position {a + int(np.argmax(bad))}")
        raise NumericalError("forward pass underflowed: the log-likelihood is not finite")
    return log_like, bounds, b


def _walk(T: np.ndarray, b: np.ndarray, starts: np.ndarray, ends: np.ndarray, n: int, size: int):
    """Alpha forward and beta backward inside every block of a step, in the same rounds.

    ``starts`` (K, m) holds alpha before each block and ``ends`` beta after
    it. The beta half carries beta_t * b_t, so both step as (T or T.T) X
    times a column of ``b``: round j takes alpha into row 1 + k B + j and
    beta to row (k + 1) B - 1 - j; the short last block's beta waits for
    row n. Returns (alphas, betas, scales) over local rows 0 .. n, a row a
    column: alphas normalized by the scales, betas at any scale.
    """
    blocks, m = starts.shape
    alphas, betas = np.empty((2, m, 1 + blocks * size))
    scales = np.empty(1 + blocks * size)
    alphas[:, 0] = starts[0]
    mats, ones = np.stack([T, T.T]), np.ones(m)
    state = np.stack([starts.T, ends.T * b[:, size::size]])
    wait = size * blocks - n
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(size):
            if j == wait:
                state[1, :, -1] = ends[-1] * b[:, n]
            moved = mats @ state
            betas[:, size - 1 - j : blocks * size : size] = moved[1]
            moved[0] *= b[:, 1 + j :: size]
            moved[1] *= b[:, size - 1 - j : blocks * size : size]
            sums = ones @ moved
            moved /= sums[:, None, :]
            alphas[:, 1 + j :: size], scales[1 + j :: size] = moved[0], sums[0]
            state = moved
    betas[:, n] = ends[-1]
    return alphas[:, : n + 1], betas[:, : n + 1], scales[: n + 1]


def _walks(T, seq, emissions, bounds, b=None, backward=True):
    """:func:`_walk` over every step, as (a, alphas, betas, scales, b), the last
    first when ``backward``; ``b`` is the first step's emissions, if known."""
    size, steps = _steps(len(seq))
    ends = bounds[1, ::-1]  # ends[k + 1]: beta after block k
    firsts = np.cumsum([0] + [count for *_, count in steps])
    for i in range(len(steps))[:: -1 if backward else 1]:
        (a, hi, count), k = steps[i], firsts[i]
        if b is None:
            b, _ = _shifted(emissions(seq[a:hi]), 1 + count * size)
        starts, stops = bounds[0, k : k + count], ends[k + 1 : k + count + 1]
        yield a, *_walk(T, b, starts, stops, hi - a - 1, size), b[:, : hi - a]
        b = None  # released before the next step's emissions are made


def _pass2(T: np.ndarray, seq: CountSequence, emissions, passed):
    """Each step's (a, alphas, betas, scales, b) from :func:`_walks`, betas scaled so
    that alpha_t . beta_t = 1. The walks start from :func:`_pass1`'s last emissions,
    and only the step being consumed is held.
    """
    _, bounds, b = passed
    return map(_normalized, _walks(T, seq, emissions, bounds, b))


def _normalized(step: tuple) -> tuple:
    """``step`` with its betas scaled in place so that alpha_t . beta_t = 1.

    A normalizer alpha_t . beta_t that is not positive and finite raises: the
    messages underflowed to disjoint supports, as a reducible T allows.
    """
    a, alphas, betas, _, _ = step
    norms = np.ones(alphas.shape[0]) @ (alphas * betas)
    bad = ~np.isfinite(norms) | (norms <= 0.0)
    if np.any(bad):
        raise NumericalError(f"backward pass underflowed at position {a + int(np.argmax(bad))}")
    betas /= norms
    return step


def log_likelihood(params: HmmParams, seq: CountSequence) -> float:
    """Exact log-likelihood of a count sequence under a binomial HMM."""
    if len(seq) < 1:
        raise DataError("cannot score an empty sequence")

    def emissions(rows):
        return emission_log_probs(params, rows).T

    return _pass1(params.initial_dist, params.transition, seq, emissions)[0]


def _m_step(seq: CountSequence, T: np.ndarray, steps) -> HmmParams:
    """The M-step from :func:`_pass2`'s steps, summed step by step.

    Each step's ``b`` and ``betas`` are consumed: the sums are formed in them.
    """
    m = T.shape[0]
    trans_counts = np.zeros((m, m))
    num = np.zeros((m, seq.num_cells))
    den = np.zeros((m, seq.num_cells))
    for a, alphas, betas, scales, b in steps:
        # expected transition counts: xi_t(i, j) = alpha_{t-1}(j) T[i, j] b_t(i) beta_t(i) / s_t
        xi = b[:, 1:]
        xi *= betas[:, 1:]
        xi /= scales[1:]
        trans_counts += xi @ alphas[:, :-1].T
        gammas = betas
        gammas *= alphas  # columns sum to 1
        if a == 0:
            pi_new = gammas[:, 0].copy()
        skip = 1 if a else 0  # row a is the step before's last
        rows = seq[a + skip : a + alphas.shape[1]]
        num += gammas[:, skip:] @ rows.meth.astype(np.float64)
        den += gammas[:, skip:] @ rows.coverage.astype(np.float64)
        del alphas, betas, scales, b, xi, gammas  # none held while the next step is made

    trans_counts *= T
    col = trans_counts.sum(axis=0)
    T_new = np.where(col > 0.0, trans_counts / np.where(col > 0.0, col, 1.0), 1.0 / m)
    degenerate = den <= 0.0
    if np.any(degenerate):
        warnings.warn(
            "a state received zero expected coverage; its success probability was reset to 0.5",
            RuntimeWarning,
            stacklevel=3,
        )
    p_new = np.clip(np.where(degenerate, 0.5, num / np.where(degenerate, 1.0, den)), 0.0, 1.0)
    if not all(np.isfinite(x).all() for x in (pi_new, T_new, p_new)):
        raise NumericalError("EM update has non-finite entries")
    return HmmParams(initial_dist=pi_new, transition=T_new, meth_probs=p_new.T)


def em_fit(seq: CountSequence, num_states: int, config: EmConfig) -> EmTrace:
    """Baum-Welch fit of a binomial HMM.

    Records the log-likelihood of the current parameters at the start of every
    iteration; the trace is non-decreasing up to round-off. Stops on the
    fractional-improvement rule of ``config`` or after ``max_iters`` updates.
    """
    _check_integer("num_states", num_states, 1)
    if len(seq) < 2:
        raise DataError(f"need at least 2 positions to fit transitions, got {len(seq)}")
    if config.init is not None:
        params = config.init
        if params.num_states != num_states:
            raise ParameterError(f"warm start carries {params.num_states} states, expected {num_states}")
        if params.num_cells != seq.num_cells:
            raise ParameterError(f"warm start carries {params.num_cells} cell(s), data carries {seq.num_cells}")
    else:
        rng = np.random.default_rng(config.seed)
        params = random_init(num_states, seq.num_cells, rng)

    # data only: once per fit, a step at a time
    log_choose = sum(float(_log_choose(seq[lo : lo + _STEP]).sum()) for lo in range(0, len(seq), _STEP))
    lls: list[float] = []
    stamps = [time.perf_counter()]
    for _ in range(config.max_iters):
        T, emissions = params.transition, functools.partial(_count_log_probs, params.cell_probs())
        passed = _pass1(params.initial_dist, T, seq, emissions)
        lls.append(passed[0] + log_choose)
        stamps.append(time.perf_counter())
        if (
            len(lls) > 1
            and config.rel_ll_tolerance > 0.0
            and lls[-1] - lls[-2] <= config.rel_ll_tolerance * abs(lls[-2])
        ):
            break
        steps = _pass2(T, seq, emissions, passed)
        del passed  # pass 1's emissions then live only until the walks are done with them
        params = _m_step(seq, T, steps)
    seconds = np.diff(stamps).tolist()
    return EmTrace(log_likelihoods=lls, seconds=seconds, params=params, iterations=len(lls))
