"""Expectation-maximization baseline for binomial HMMs.

Uses the scaled forward-backward recursions (per-position normalization
constants rather than log-space messages), betas scaled so that
alpha_t . beta_t = 1. Both passes are walked in blocks of about sqrt(L) / 2
positions and share one set of block transfers, so an EM iteration makes one
transfer pass, two log-depth block scans and two in-block recursions: about
1.5 sqrt(L) + log2(L) rounds of numpy calls. Emissions multiply one binomial
likelihood per cell type, treating cells as conditionally independent given
the shared hidden state.
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
        # a finite bound, so a model's provenance stays strict JSON
        if not 0.0 <= self.rel_ll_tolerance < math.inf:
            raise ParameterError(
                f"rel_ll_tolerance must lie in [0, inf), got {self.rel_ll_tolerance}"
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
    return (lg[0] - lg[1] - lg[2]) @ np.ones(seq.num_cells)


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


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)`` by one ``np.maximum`` per column.

    numpy reduces a short last axis several times slower than it runs a
    handful of whole-column calls; ``X @ ones`` stands in for the sum the
    same way.
    """
    top = x[..., 0].copy()
    for k in range(1, x.shape[-1]):
        np.maximum(top, x[..., k], out=top)
    return top


def _compose(a1, s1, a2, s2) -> tuple[np.ndarray, np.ndarray]:
    """The walk through transfers (a1, s1), then (a2, s2), as one transfer.

    A transfer (A, s) has shapes (n, m, m) and (n, m): row i of A is basis
    vector i walked through some steps with its sum scaled to 1, and s[i] is
    the log of that scale. Each row's weights on the rows of a2 are shifted by
    their own maximum in log space, so no row underflows against another. A
    dead row (zero, scale -inf) stays zero with scale -inf and never turns
    into nan, which a matrix product would spread: 0 * nan is nan.
    """
    weights = np.log(a1) + s2[:, None, :]
    top = _row_max(weights)
    product = np.exp(weights - np.where(np.isfinite(top), top, 0.0)[..., None]) @ a2
    row_sums = product @ np.ones(product.shape[-1])
    product /= np.where(row_sums > 0.0, row_sums, 1.0)[..., None]
    return product, s1 + top + np.log(row_sums)


def _block_grid(length: int) -> tuple[int, int]:
    """Block size B = isqrt(length - 1) // 2 and the K blocks of the length - 1 steps.

    Block k holds positions 1 + k B .. (k + 1) B; the last one stops at
    length - 1 and may be short.
    """
    size = max(math.isqrt(length - 1) // 2, 1)
    return size, max(-(-(length - 1) // size), 1)  # at length 1, one block whose step is cut


def _transfers(step, length: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every block's transfer (A, s), shapes (K, m, m) and (K, m); see :func:`_compose`.

    Row i of A[k] is basis vector i stepped through block k's positions,
    renormalized at each step with its log scale kept in s[k, i], so a row
    the block's data disfavour does not underflow against another. The short
    last block's rows stop stepping at length - 1. B rounds of numpy calls.
    """
    size, blocks = _block_grid(length)
    steps_in_last = length - 1 - size * (blocks - 1)  # 0 at length 1
    ones = np.ones(m)
    # rows k*m .. k*m + m - 1 hold block k's transfer matrix
    row_starts = np.repeat(1 + size * np.arange(blocks), m)
    transfer = np.tile(np.eye(m), (blocks, 1))
    log_scale = np.zeros(blocks * m)
    for j in range(size):
        rows = blocks * m if j < steps_in_last else (blocks - 1) * m
        moved = step(row_starts[:rows] + j, transfer[:rows])
        row_sums = moved @ ones
        log_scale[:rows] += np.log(row_sums)
        np.divide(moved, np.where(row_sums > 0.0, row_sums, 1.0)[:, None], out=transfer[:rows])
    return transfer.reshape(blocks, m, m), log_scale.reshape(blocks, m)


def _scan(first: np.ndarray, mats: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Row k: ``first`` (summing to 1) walked through transfers 0 .. k - 1, normalized.

    A doubling scan over the element that maps every basis vector to
    ``first`` and the n transfers (:func:`_compose`): ceil(log2(n + 1))
    rounds of numpy calls, shape (n + 1, m).
    """
    m = first.shape[0]
    mats = np.concatenate([np.tile(first, (1, m, 1)), mats])
    logs = np.concatenate([np.zeros((1, m)), logs])
    shift = 1
    while shift < len(mats):
        mats[shift:], logs[shift:] = _compose(
            mats[:-shift], logs[:-shift], mats[shift:], logs[shift:]
        )
        shift *= 2
    return mats[:, 0]


def _walk_blocks(states: np.ndarray, step, positions: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The recursion inside every block at once, from the K rows of ``states``.

    ``step(t, X)`` advances each row X[k] into position t[k], linearly; row j
    of ``positions`` (B, K) holds every block's j-th position, and
    ``out[:, j]`` (a (K, B, m) view) receives the states normalized to sum 1.
    Returns the normalizers, shape (K, B). A zero sum makes the rest of its
    block nan; callers check.
    """
    ones = np.ones(states.shape[1])
    sums = np.empty(positions.shape[::-1])
    for j, t in enumerate(positions):
        states = step(t, states)
        sums[:, j] = total = states @ ones
        out[:, j] = states = states / total[:, None]
    return sums


def _forward(pi: np.ndarray, T: np.ndarray, log_b: np.ndarray) -> tuple:
    """Scaled forward recursion alpha_t ~ (T alpha_{t-1}) * b_t, walked in blocks.

    As a row vector alpha_t ~ alpha_{t-1} M_t with M_t = T.T diag(b_t). Every
    block's transfer M_k (:func:`_transfers`), a doubling scan from alpha_0
    for the block starts (:func:`_scan`) and the recursion inside every block
    (:func:`_walk_blocks`) take about sqrt(L) + log2(L) / 2 rounds of numpy
    calls in O(L m) memory. Returns (log-likelihood, alphas, scales, shifted
    emissions, transfers); alphas are normalized filtering distributions,
    scales the per-position normalizers, and the transfers (all K blocks',
    the last one's included) are handed to :func:`_backward`. The first
    normalizer that is not positive and finite raises.
    """
    L, m = log_b.shape
    shift = _row_max(log_b)
    if not np.all(np.isfinite(shift)):
        raise NumericalError(
            "some position has zero probability under every state; likelihood is -inf"
        )
    b = np.exp(log_b - shift[:, None])
    size, blocks = _block_grid(L)
    alphas = np.empty((1 + blocks * size, m))
    scales = np.empty(1 + blocks * size)

    def step(t, X):
        return b.take(t, axis=0) * (X @ T.T)

    with np.errstate(divide="ignore", invalid="ignore"):
        mats, logs = transfers = _transfers(step, L, m)
        first = pi * b[0]
        scales[0] = first.sum()
        alphas[0] = first / scales[0]
        starts = _scan(alphas[0], mats[:-1], logs[:-1])
        # the last block repeats the last position; those rows are cut below
        positions = np.minimum(1 + size * np.arange(blocks) + np.arange(size)[:, None], L - 1)
        sums = _walk_blocks(starts, step, positions, alphas[1:].reshape(blocks, size, m))
        scales[1:] = sums.ravel()
    alphas, scales = alphas[:L], scales[:L]
    bad = ~np.isfinite(scales) | (scales <= 0.0)
    if np.any(bad):
        raise NumericalError(f"forward pass underflowed at position {int(np.argmax(bad))}")
    log_like = float(np.log(scales).sum() + shift.sum())
    return log_like, alphas, scales, b, transfers


def _backward(T: np.ndarray, b: np.ndarray, alphas: np.ndarray, transfers) -> np.ndarray:
    """Scaled backward recursion, alpha_t . beta_t = 1, gamma_t = alpha_t * beta_t.

    As a row vector beta_{t-1} ~ beta_t M_t.T, so a block from lo to hi gives
    beta_{lo-1} ~ beta_hi M_k.T with the forward's transfers: one
    :func:`_compose` of their transposes with the identity puts M_k.T in
    row-scaled form, a doubling scan from beta_{L-1} = 1 gives every block's
    end, and beta_{t-1} ~ (beta_t * b_t) T runs back from every end at once;
    the short last block's rows that run past its start are cut. No transfer
    rounds of its own. A normalizer alpha_t . beta_t that is not positive and
    finite raises: the messages underflowed to disjoint supports, as a
    reducible T allows.
    """
    L, m = b.shape
    size, blocks = _block_grid(L)
    mats, logs = transfers
    ones = np.ones(m)
    flat = np.empty((blocks * size, m))
    with np.errstate(divide="ignore", invalid="ignore"):
        # M_k = diag(e^s) A, so row j of M_k.T is column j of A weighted by e^s;
        # ordered from the last block back to block 1
        flipped = _compose(mats[:0:-1].transpose(0, 2, 1), 0.0, np.eye(m), logs[:0:-1])
        ends = _scan(ones / m, *flipped)[::-1]
        last = np.minimum(size * (1 + np.arange(blocks)), L - 1)
        _walk_blocks(
            ends,
            lambda t, X: (X * b.take(t, axis=0)) @ T,
            last - np.arange(size)[:, None],
            flat.reshape(blocks, size, m)[:, ::-1],
        )
    # the last block ran back from L - 1, so its first rows repeat positions
    # that block K - 2 covers
    cut = (blocks - 1) * size
    betas = np.concatenate([flat[:cut], flat[cut + blocks * size - (L - 1) :], ones[None]])
    norms = (alphas * betas) @ ones
    bad = ~np.isfinite(norms) | (norms <= 0.0)
    if np.any(bad):
        raise NumericalError(f"backward pass underflowed at position {int(np.argmax(bad))}")
    betas /= norms[:, None]
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
    if not all(np.isfinite(x).all() for x in (pi_new, T_new, p_new)):
        raise NumericalError("EM update has non-finite entries")
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
        log_like, alphas, scales, b, transfers = _forward(
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
        betas = _backward(params.transition, b, alphas, transfers)
        params = _m_step(seq, alphas, betas, scales, b, params.transition)
    seconds = np.diff(stamps).tolist()
    return EmTrace(log_likelihoods=lls, seconds=seconds, params=params, iterations=len(lls))
