"""Expectation-maximization baseline for binomial HMMs.

Uses the scaled forward-backward recursions (per-position normalization
constants rather than log-space messages), betas scaled so that
alpha_t . beta_t = 1, both run by the blocked :func:`_chain_walk` in O(sqrt(L))
rounds of numpy calls. Emissions multiply one binomial likelihood per cell
type, treating cells as conditionally independent given the shared hidden state.
The module needs numpy alone: the binomial coefficients come from
``math.lgamma`` once per count value, and a fit computes them once.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError, ParameterError
from .model import CountSequence, HmmParams

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
        if self.max_iters < 1:
            raise ParameterError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.rel_ll_tolerance < 0.0:
            raise ParameterError(
                f"rel_ll_tolerance must be >= 0, got {self.rel_ll_tolerance}"
            )


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
        raise ParameterError(
            f"model carries {p.shape[0]} cell(s) but data carries {seq.num_cells}"
        )
    return _log_choose(seq)[:, None] + _count_log_probs(p, seq)


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
    return (lg[0] - lg[1] - lg[2]).sum(axis=1)


def _count_log_probs(p: np.ndarray, seq: CountSequence) -> np.ndarray:
    """mu log p + (c - mu) log(1 - p) summed over cells, shape (length, num_states).

    ``p`` is (num_cells, num_states). As in ``binom.logpmf``, 0 log 0 counts
    as 0 and a positive count against a probability of 0 gives -inf.
    """
    zero, one = p == 0.0, p == 1.0
    with np.errstate(divide="ignore"):
        log_p = np.where(zero, 0.0, np.log(p))
        log_q = np.where(one, 0.0, np.log1p(-p))
    c = seq.coverage.astype(np.float64)
    mu = seq.meth.astype(np.float64)
    out = mu @ log_p + (c - mu) @ log_q
    if zero.any() or one.any():
        out[(seq.meth > 0) @ zero | (seq.coverage > seq.meth) @ one] = -np.inf
    return out


def _chain_walk(first: np.ndarray, step, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Walk x_0 = first / sum, x_t = step(t, x_{t-1}) / sum; return (xs, sums).

    ``step(t, X)`` advances each row X[i] (shape (n, m)) into position t[i],
    linearly, or exactly on one-hot rows. The length - 1 steps fall into K
    blocks of B = isqrt(length - 1), walked all at once in three passes: each
    block's transfer matrix from the basis vectors (rows renormalized per step,
    log scales kept, so no row underflows against another); the start vector
    carried across blocks; the recursion inside every block from its start.
    That is about 2B + K rounds of numpy calls in O(length * m) memory. A zero
    sum makes the rest of its block nan; callers check the sums.
    """
    m = first.shape[0]
    size = max(math.isqrt(length - 1), 1)
    blocks = max(-(-(length - 1) // size), 1)  # at length 1, one block whose step is cut
    ones = np.ones(m)  # X @ ones: numpy reduces a short last axis several times slower
    xs = np.empty((1 + blocks * size, m))
    sums = np.empty(1 + blocks * size)
    with np.errstate(divide="ignore", invalid="ignore"):
        sums[0] = first.sum()
        xs[0] = first / sums[0]
        starts = 1 + size * np.arange(blocks)
        # rows k*m .. k*m + m - 1 hold block k's transfer matrix
        row_starts = np.repeat(starts[:-1], m)
        transfer = np.tile(np.eye(m), (blocks - 1, 1))
        log_scale = np.zeros((blocks - 1) * m)
        for j in range(size):
            transfer = step(row_starts + j, transfer)
            row_sums = transfer @ ones
            log_scale += np.log(row_sums)
            transfer = transfer / np.where(row_sums > 0.0, row_sums, 1.0)[:, None]
        carried = np.empty((blocks, m))
        carried[0] = x = xs[0]
        for k in range(blocks - 1):
            weights = np.log(x) + log_scale[k * m : (k + 1) * m]
            x = np.exp(weights - weights.max()) @ transfer[k * m : (k + 1) * m]
            carried[k + 1] = x = x / x.sum()
        xs_by_block = xs[1:].reshape(blocks, size, m)
        sums_by_block = sums[1:].reshape(blocks, size)
        state = carried
        for j in range(size):
            # the last block repeats the last position; those rows are cut below
            state = step(np.minimum(starts + j, length - 1), state)
            total = state @ ones
            xs_by_block[:, j] = state = state / total[:, None]
            sums_by_block[:, j] = total
    return xs[:length], sums[:length]


def _forward(
    pi: np.ndarray, T: np.ndarray, log_b: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Scaled forward recursion alpha_t ~ (T alpha_{t-1}) * b_t on :func:`_chain_walk`.

    Returns (log-likelihood, alphas, scales, shifted emissions). Alphas are
    normalized filtering distributions, scales the per-position normalizers;
    the first normalizer that is not positive and finite raises.
    """
    L = len(log_b)
    shift = log_b.max(axis=1)
    if not np.all(np.isfinite(shift)):
        raise NumericalError(
            "some position has zero probability under every state; likelihood is -inf"
        )
    b = np.exp(log_b - shift[:, None])
    alphas, scales = _chain_walk(pi * b[0], lambda t, X: b.take(t, axis=0) * (X @ T.T), L)
    bad = ~np.isfinite(scales) | (scales <= 0.0)
    if np.any(bad):
        raise NumericalError(f"forward pass underflowed at position {int(np.argmax(bad))}")
    log_like = float(np.log(scales).sum() + shift.sum())
    return log_like, alphas, scales, b


def _backward(T: np.ndarray, b: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Scaled backward recursion, alpha_t . beta_t = 1, gamma_t = alpha_t * beta_t.

    The walk on ``T.T`` over the reversed emissions gives z_t ~ b_t * beta_t,
    and beta_t ~ T.T z_{t+1} for t < L - 1, with beta_{L-1} = 1.
    """
    L, m = b.shape
    zs, _ = _chain_walk(b[-1], lambda t, X: b.take(L - 1 - t, axis=0) * (X @ T), L)
    betas = np.ones((L, m))
    betas[:-1] = zs[::-1][1:] @ T
    betas /= (alphas * betas).sum(axis=1, keepdims=True)
    return betas


def log_likelihood(params: HmmParams, seq: CountSequence) -> float:
    """Exact log-likelihood of a count sequence under a binomial HMM."""
    if len(seq) < 1:
        raise DataError("cannot score an empty sequence")
    log_b = emission_log_probs(params, seq)
    log_like, *_ = _forward(params.initial_dist, params.transition, log_b)
    return log_like


def _m_step(
    seq: CountSequence,
    alphas: np.ndarray,
    betas: np.ndarray,
    scales: np.ndarray,
    b: np.ndarray,
    T: np.ndarray,
) -> HmmParams:
    L, m = alphas.shape
    gammas = alphas * betas  # rows sum to 1: _backward scales alpha_t . beta_t to 1

    pi_new = gammas[0]

    # expected transition counts: xi_t(i, j) = alpha_t(j) T[i, j] b_{t+1}(i) beta_{t+1}(i) / s_{t+1}
    weighted = (b[1:] * betas[1:]) / scales[1:, None]
    trans_counts = T * (weighted.T @ alphas[:-1])
    col = trans_counts.sum(axis=0)
    T_new = np.empty_like(T)
    for j in range(m):
        if col[j] > 0.0:
            T_new[:, j] = trans_counts[:, j] / col[j]
        else:
            T_new[:, j] = 1.0 / m

    num = gammas.T @ seq.meth.astype(np.float64)
    den = gammas.T @ seq.coverage.astype(np.float64)
    p_new = np.empty_like(num)
    degenerate = den <= 0.0
    if np.any(degenerate):
        warnings.warn(
            "a state received zero expected coverage; its success probability "
            "was reset to 0.5",
            RuntimeWarning,
            stacklevel=3,
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(num, den, out=p_new, where=~degenerate)
    p_new[degenerate] = 0.5
    np.clip(p_new, 0.0, 1.0, out=p_new)
    return HmmParams(initial_dist=pi_new, transition=T_new, meth_probs=p_new.T)


def em_fit(seq: CountSequence, num_states: int, config: EmConfig) -> EmTrace:
    """Baum-Welch fit of a binomial HMM.

    Records the log-likelihood of the current parameters at the start of every
    iteration; the trace is non-decreasing up to round-off. Stops on the
    fractional-improvement rule of ``config`` or after ``max_iters`` updates.
    """
    if num_states < 1:
        raise ParameterError(f"num_states must be >= 1, got {num_states}")
    if len(seq) < 2:
        raise DataError(f"need at least 2 positions to fit transitions, got {len(seq)}")
    if config.init is not None:
        params = config.init
        if params.num_states != num_states:
            raise ParameterError(
                f"warm start carries {params.num_states} states, expected {num_states}"
            )
        if params.num_cells != seq.num_cells:
            raise ParameterError(
                f"warm start carries {params.num_cells} cell(s), data carries {seq.num_cells}"
            )
    else:
        rng = np.random.default_rng(config.seed)
        params = random_init(num_states, seq.num_cells, rng)

    log_choose = float(_log_choose(seq).sum())  # data only: once per fit
    lls: list[float] = []
    stamps = [time.perf_counter()]
    for _ in range(config.max_iters):
        log_b = _count_log_probs(params.cell_probs(), seq)
        log_like, alphas, scales, b = _forward(
            params.initial_dist, params.transition, log_b
        )
        lls.append(log_like + log_choose)
        stamps.append(time.perf_counter())
        if (
            len(lls) > 1
            and config.rel_ll_tolerance > 0.0
            and lls[-1] - lls[-2] <= config.rel_ll_tolerance * abs(lls[-2])
        ):
            break
        betas = _backward(params.transition, b, alphas)
        params = _m_step(seq, alphas, betas, scales, b, params.transition)
    seconds = np.diff(stamps).tolist()
    return EmTrace(log_likelihoods=lls, seconds=seconds, params=params, iterations=len(lls))
