"""Histogram features for count observations.

An observation (c, mu) is mapped to a length-D probability vector: the mass
that a smoothed estimate of the underlying methylation fraction assigns to
each of D equal bins of [0, 1]. The smoothing is the conjugate update of a
flat prior on the fraction, so the vector holds the binned density of a
Beta(mu + 1, c - mu + 1) variable. It concentrates around mu / c as coverage
grows and degrades gracefully to the uniform vector when coverage is zero.

Bin masses are differences of the regularized incomplete beta function at the
bin edges. For coverage c it equals a binomial tail,
I_x(mu + 1, c - mu + 1) = P(K >= mu + 1) with K ~ Binomial(c + 1, x), so the
rows of one coverage come from one pmf row per bin edge in numpy; each edge
takes the smaller of its two tails, so no mass is a difference of two numbers
near 1. Coverages above ``_TAIL_MAX_COVERAGE`` use scipy's ``betainc``, which
loads only then. A sequence is mapped through
``feature_table``: one row per distinct (coverage, count) pair plus each
position's row index, with rows shared through a module cache, so long
sequences with repeated counts are mapped once per distinct pair.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .model import _STEP, CountSequence, Observation, _check_integer

__all__ = [
    "BetaMapConfig",
    "FtdConfig",
    "beta_map",
    "feature_table",
    "empirical_prior_weight",
    "prior_weights",
    "cache_stats",
    "clear_cache",
]


@dataclass(frozen=True)
class BetaMapConfig:
    """Configuration of the histogram map: number of bins of [0, 1]."""

    granularity: int = 30

    def __post_init__(self) -> None:
        _check_integer("granularity", self.granularity, 1)


# the spectral fit's controls live here, beside the map's, and pipeline
# re-exports them: a command that only checks or records them (an em fit,
# sampling a table) loads none of the spectral modules
@dataclass(frozen=True)
class FtdConfig:
    """Controls for the spectral fit.

    ``granularity`` is the number of histogram bins per cell. Pair directions
    whose curvature falls below the sampling noise are not inverted: when
    fewer than ``num_states`` directions survive, the decomposition runs at the
    reduced rank and the missing states are filled with copies of the heaviest
    recovered components (a merged-state estimate). The noise of each
    direction comes from the disagreement of the pair moments of two half
    streams, which ``pipeline.ftd_fit`` sums separately and
    ``pipeline.ftd_fit_moments`` takes as ``split_halves``. Without them it is
    ``noise_level`` times the norm of the third-view operator, where
    ``noise_level`` is ``moment_ridge`` or, if that is None, a closed-form
    stand-in; only such fits report ``noise_level``, and with halves
    ``moment_ridge`` has no effect. ``granularity`` is an integer >= 1 and
    ``moment_ridge`` is None or lies in [0, inf).
    """

    granularity: int = 30
    moment_ridge: float | None = None

    def __post_init__(self) -> None:
        BetaMapConfig(self.granularity)  # the map's integer rule
        if self.moment_ridge is not None and not 0.0 <= self.moment_ridge < math.inf:
            raise ParameterError(f"moment_ridge must lie in [0, inf), got {self.moment_ridge}")


class _FeatureCache:
    """Per-(coverage, count, granularity) store of computed feature rows.

    One lock guards the rows and both counters, so threads mapping sequences
    at once count every lookup and store each row once.
    """

    def __init__(self) -> None:
        self._rows: dict[tuple[int, int, int], np.ndarray] = {}
        self._lock = threading.Lock()
        self.computed = 0
        self.requests = 0

    def get(self, keys: list) -> list:
        """The cached row of each key, or None where it is missing."""
        with self._lock:
            self.requests += len(keys)
            return [self._rows.get(key) for key in keys]

    def put(self, keys: list, rows: np.ndarray) -> None:
        """Store rows for keys that are still missing."""
        with self._lock:
            for key, row in zip(keys, rows):
                if key not in self._rows:
                    row = np.array(row, dtype=np.float64)
                    row.setflags(write=False)
                    self._rows[key] = row
                    self.computed += 1

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()
            self.computed = 0
            self.requests = 0

    def __len__(self) -> int:
        return len(self._rows)


_CACHE = _FeatureCache()


def cache_stats() -> dict:
    """Counters of the shared feature cache (entries, computed, requests)."""
    return {"entries": len(_CACHE), "computed": _CACHE.computed, "requests": _CACHE.requests}


def clear_cache() -> None:
    _CACHE.clear()


def _bin_edges(granularity: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, granularity + 1)


# Largest coverage whose rows come from binomial tails. With n = c + 1,
# comb(n, k) < 2**n and, near the pmf's mode, x**k (1 - x)**(n - k) > 2**-n,
# so the float products are finite and normal only while n stays below about
# 1020; 512 keeps a factor of two from that edge. Rows above it use betainc,
# which holds for any count, including 2**63 - 1.
_TAIL_MAX_COVERAGE = 512


def _tail_masses(coverage: int, meth: np.ndarray, granularity: int) -> np.ndarray:
    """Bin masses of the pairs (coverage, meth[r]) from binomial tails, shape (r, granularity)."""
    n = coverage + 1
    k = np.arange(n + 1)
    i = np.arange(granularity + 1)[:, None]
    comb = np.array([float(math.comb(n, j)) for j in range(n + 1)])
    pmf = comb * (i / granularity) ** k * ((granularity - i) / granularity) ** (n - k)
    # each tail is summed from its far end, where the terms are smallest
    lower = np.cumsum(pmf, axis=1)[:, meth]
    upper = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1][:, meth + 1]
    # cdf = upper / total at each edge; dividing by the edge's own total
    # absorbs the rounding of i / D and (D - i) / D, which need not sum to 1
    use_upper = upper <= lower
    tail = np.where(use_upper, upper, -lower) / (lower + upper)
    # where an edge switches from the upper to the lower tail the mass is
    # 1 - lower - upper, so the switch adds 1
    masses = np.diff(tail, axis=0) - np.diff(use_upper.astype(np.float64), axis=0)
    return masses.T


def _beta_bin_masses(coverage: np.ndarray, meth: np.ndarray, granularity: int) -> np.ndarray:
    """Bin masses for arrays of (coverage, count) pairs, shape (n, granularity)."""
    masses = np.empty((coverage.size, granularity))
    tails = coverage <= _TAIL_MAX_COVERAGE
    small = np.flatnonzero(tails)
    # return_inverse also keeps np.unique from importing numpy.ma, which a
    # plain call does to test for a mask
    values, which = np.unique(coverage[small], return_inverse=True)
    for j, c in enumerate(values.tolist()):
        rows = small[which == j]
        masses[rows] = _tail_masses(c, meth[rows], granularity)
    if not tails.all():
        # imported here: scipy.special costs about 0.3 s CPU and 25 MB at
        # start-up, and only coverages above the bound need it
        from scipy.special import betainc

        a = meth[~tails].astype(np.float64) + 1.0
        b = coverage[~tails].astype(np.float64) - meth[~tails].astype(np.float64) + 1.0
        cdf = betainc(a[:, None], b[:, None], _bin_edges(granularity)[None, :])
        masses[~tails] = np.diff(cdf, axis=1)
    # the cdf is monotone; clip the odd -1e-17 round-off residue
    np.maximum(masses, 0.0, out=masses)
    return masses


def _as_counts(obs) -> tuple[int, int]:
    if isinstance(obs, Observation):
        return obs.coverage, obs.meth_count
    c, mu = obs
    c, mu = int(c), int(mu)
    if c < 0:
        raise ParameterError(f"coverage must be >= 0, got {c}")
    if not 0 <= mu <= c:
        raise ParameterError(f"meth count {mu} outside [0, {c}]")
    return c, mu


def beta_map(obs, cfg: BetaMapConfig) -> np.ndarray:
    """Feature vector of one observation; entries are non-negative and sum to 1."""
    c, mu = _as_counts(obs)
    key = [(c, mu, cfg.granularity)]
    row = _CACHE.get(key)[0]
    if row is None:
        row = _beta_bin_masses(np.array([c]), np.array([mu]), cfg.granularity)[0]
        _CACHE.put(key, [row])
    return row


# Pairs are keyed densely, through a table of (c_max + 1)**2 codes, while that
# many codes are at most this many times the observations: the keying then
# costs O(n) time and memory. On genome-ftd's 235,929 training observations
# (c_max 52) a warm-cache feature_table took 2.7 ms this way against 28 ms with
# the sort. Wider coverages, up to 2**63 - 1, are sorted.
_DENSE_KEYS = 4


def _index_dtype(size: int) -> np.dtype:
    """The smallest unsigned integer type that holds every row number below ``size``."""
    return np.min_scalar_type(max(size - 1, 0))


def feature_table(seq: CountSequence, cfg: BetaMapConfig) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows of the distinct (coverage, count) pairs of a sequence.

    Returns ``(table, index)``. ``table`` has shape (U, granularity): one row
    per distinct pair over all cells, in increasing (coverage, count) order.
    ``index`` has shape (length, num_cells), in column order, and
    ``index[t, j]`` is the table row of cell j at position t. Its dtype is the
    smallest unsigned integer type that holds U - 1 (uint16 for a genome's
    thousand or so pairs), so it takes 2 bytes per position and cell where
    int64 took 8; ``np.take`` and ``np.bincount`` copy such an index to intp
    on every call, so a long pass converts it a step at a time. The pairs are
    keyed one of two ways, chosen by the largest coverage c_max against the
    number n of observations (positions times cells). While (c_max + 1)**2 <=
    ``_DENSE_KEYS`` * n, the codes c * (c_max + 1) + mu of ``_STEP`` positions
    at a time mark the pairs that occur, in code order, which is (coverage,
    count) order, and a second walk looks up each code's rank, so no code
    array is as long as the sequence. Otherwise one stable sort on (coverage,
    count) and the boundaries of its runs key them, so counts up to
    2**63 - 1 need no re-coding. Both give the same table and index. Rows are
    read through the module cache; only missing rows are computed.
    """
    D = cfg.granularity
    # keyed cell by cell (the transposes are views), so each cell's keys form
    # one contiguous column of the index
    cov, meth = seq.coverage.T, seq.meth.T
    cells, length = cov.shape
    radix = int(cov.max(initial=0)) + 1
    if radix * radix <= _DENSE_KEYS * cov.size:

        def codes():
            for lo in range(0, length, _STEP):
                code = np.multiply(cov[:, lo : lo + _STEP], radix)
                code += meth[:, lo : lo + _STEP]
                yield lo, code

        seen = np.zeros(radix * radix, dtype=bool)
        for _, code in codes():
            seen[code] = True
        keys = np.flatnonzero(seen)
        cov_u, meth_u = np.divmod(keys, radix)
        rank = np.zeros(seen.size, dtype=_index_dtype(keys.size))
        rank[keys] = np.arange(keys.size)
        index = np.empty(cov.shape, dtype=rank.dtype)
        for lo, code in codes():
            index[:, lo : lo + _STEP] = rank[code]
    else:
        # one lexsort replaced two np.unique passes with inverses (ranks of
        # the 2L count values, then of the L pair codes): on the genome-ftd
        # sequence the call's tracemalloc peak fell from 25.7 to 8.7 MB at
        # the same 38 ms
        cov, meth = cov.ravel(), meth.ravel()
        order = np.lexsort((meth, cov))
        cov_s, meth_s = cov[order], meth[order]
        new = np.ones(order.size, dtype=bool)
        new[1:] = (cov_s[1:] != cov_s[:-1]) | (meth_s[1:] != meth_s[:-1])
        cov_u, meth_u = cov_s[new], meth_s[new]
        del cov_s, meth_s  # freed before the index forms: 12.9 MB peak without this
        index = np.empty(order.size, dtype=_index_dtype(cov_u.size))
        index[order] = np.cumsum(new) - 1
        index = index.reshape(cells, length)
    cache_keys = [(c, mu, D) for c, mu in zip(cov_u.tolist(), meth_u.tolist())]
    cached = _CACHE.get(cache_keys)
    table = np.empty((cov_u.size, D))
    missing = []
    for u, row in enumerate(cached):
        if row is None:
            missing.append(u)
        else:
            table[u] = row
    if missing:
        table[missing] = _beta_bin_masses(cov_u[missing], meth_u[missing], D)
        _CACHE.put([cache_keys[u] for u in missing], table[missing])
    return table, index.T


def empirical_prior_weight(seq: CountSequence, cell: int = 0) -> float:
    """Mean of 1 / (coverage + 2) over positions of one cell.

    This is the average weight that the smoothed fraction estimate
    (mu + 1) / (c + 2) puts on each prior pseudo-count; it lives in (0, 1/2]
    and enters the affine correction that turns feature-mean histograms back
    into success probabilities. It is summed ``_STEP`` positions at a time in
    one reused buffer, so no float temporary is as long as the sequence.
    """
    if len(seq) == 0:
        raise DataError("cannot average over an empty sequence")
    if not 0 <= cell < seq.num_cells:
        raise ParameterError(f"cell index {cell} outside [0, {seq.num_cells})")
    cov = seq.coverage[:, cell]
    buf = np.empty(min(len(cov), _STEP))
    total = 0.0
    for lo in range(0, len(cov), _STEP):
        part = buf[: len(cov) - lo]
        np.add(cov[lo : lo + _STEP], 2.0, out=part)
        total += float(np.reciprocal(part, out=part).sum())
    return total / len(cov)


def prior_weights(seq: CountSequence) -> np.ndarray:
    """Per-cell empirical prior weights, shape (num_cells,)."""
    return np.array([empirical_prior_weight(seq, j) for j in range(seq.num_cells)])
