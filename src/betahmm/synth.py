"""Synthetic models, samplers, and the benchmark harness.

The generator plants models with two lowly and two highly methylated states
(for the default four states), a diagonally dominant random transition matrix
and Poisson coverage. The benchmark sweeps sequence lengths, fitting both the
spectral method and EM on fresh draws, and records Hungarian-matched
estimation errors and per-thread CPU times per run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._blas import _one_blas_thread
from .errors import BetaHmmError, ParameterError
from .features import _STEP, FtdConfig
from .model import CountSequence, HmmParams

# the fits, hungarian, csv and concurrent.futures are imported by the functions
# that use them, so sampling a table (simulate, a benchmark's set-up) loads
# none of them

__all__ = [
    "SynthConfig",
    "BenchmarkRow",
    "ExperimentReport",
    "generate_params",
    "sample_sequence",
    "stationary_distribution",
    "estimation_error",
    "run_benchmark",
]

_ALGORITHMS = ("ftd", "em")

# success-probability ranges of the low and the high state group
_LOW_RANGE = (0.0, 0.3)
_HIGH_RANGE = (0.7, 1.0)

# the largest mean numpy's Poisson sampler takes: its draws stay within int64
_MAX_COVERAGE_MEAN = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SynthConfig:
    """Protocol of the synthetic sweep.

    States split into a low group drawn from ``_LOW_RANGE`` and a high group
    from ``_HIGH_RANGE``; the transition matrix mixes ``diag_weight`` times the
    identity with a column-normalized uniform random matrix.
    """

    num_states: int = 4
    num_cells: int = 1
    diag_weight: float = 0.2
    coverage_mean: float = 25.0
    lengths: tuple[int, ...] = (128, 256, 512, 1024, 2048, 4096, 8192)
    trials: int = 20
    seed: int = 0
    ftd: FtdConfig = field(default_factory=FtdConfig)
    em_max_iters: int = 200
    em_rel_tol: float = 0.001

    def __post_init__(self) -> None:
        if self.num_states < 1:
            raise ParameterError(f"num_states must be >= 1, got {self.num_states}")
        if self.num_cells < 1:
            raise ParameterError(f"num_cells must be >= 1, got {self.num_cells}")
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 <= self.diag_weight <= 1.0:
            raise ParameterError(f"diag_weight must lie in [0, 1], got {self.diag_weight}")
        if not self.lengths:
            raise ParameterError("lengths must name at least one benchmark length")
        if any(length < 3 for length in self.lengths):
            raise ParameterError("every benchmark length must be >= 3")


def generate_params(cfg: SynthConfig, seed) -> HmmParams:
    """Draw a model from the synthetic protocol.

    The first half of the states is lowly methylated, the second half highly;
    with several cells each cell draws its own probabilities. The transition
    matrix is ``diag_weight * I + (1 - diag_weight) * U`` with U uniform and
    column-normalized, renormalized once more so columns sum to 1 exactly.
    """
    rng = np.random.default_rng(seed)
    m = cfg.num_states
    n_low = m // 2
    p = np.empty((cfg.num_cells, m))
    p[:, :n_low] = rng.uniform(*_LOW_RANGE, size=(cfg.num_cells, n_low))
    p[:, n_low:] = rng.uniform(*_HIGH_RANGE, size=(cfg.num_cells, m - n_low))
    u = rng.uniform(size=(m, m))
    u /= u.sum(axis=0, keepdims=True)
    T = cfg.diag_weight * np.eye(m) + (1.0 - cfg.diag_weight) * u
    T /= T.sum(axis=0, keepdims=True)
    pi = rng.uniform(size=m)
    pi /= pi.sum()
    return HmmParams(initial_dist=pi, transition=T, meth_probs=p)


def _hidden_states(params: HmmParams, u: np.ndarray) -> np.ndarray:
    """Per position, the first state whose cumulative probability reaches u[t], capped.

    ``nxt[t, i]``, the state at t + 1 after state i at t, is the count of
    column i's cumulative sums below u[t + 1], the last one left out as the
    cap. One ``searchsorted`` over every column's sums, merged and sorted,
    gives how many of them lie below each draw, and a prefix-count table,
    one row per such count and one column per state, splits that number by
    column; sums that tie fall on the same side of any draw, so their order
    does not matter. ``nxt``, like the returned path, holds the smallest
    unsigned type for m - 1, and is read flat, so each round below is one
    ``take``.
    The steps fall into K blocks of B = isqrt(length - 1); each block's map
    from its first state to its last is composed in B rounds, the block
    starts are carried through those maps, and every block is filled from
    its start in B more rounds.
    """
    m = params.num_states
    cum_pi = np.cumsum(params.initial_dist)
    cum_pi[-1] = np.inf  # the cap at the last state
    sums = np.cumsum(params.transition, axis=0)[:-1].T.ravel()  # column i's, then i + 1's
    order = np.argsort(sums, kind="stable")
    below = np.zeros((sums.size + 1, m), dtype=np.min_scalar_type(m - 1))
    below[np.arange(1, sums.size + 1), np.repeat(np.arange(m), m - 1)[order]] = 1
    below = below.cumsum(axis=0, dtype=below.dtype)
    steps = len(u) - 1
    # flat: nxt[t, i] is nxt[t * m + i]
    nxt = below.take(np.searchsorted(sums[order], u[1:]), axis=0).ravel()
    size = max(math.isqrt(steps), 1)
    blocks = max(-(-steps // size), 1)  # at length 1, one block whose step is cut
    at = m * size * np.arange(blocks)  # each block's current step, times m
    maps = np.broadcast_to(np.arange(m, dtype=nxt.dtype), (blocks - 1, m))
    for j in range(size):
        maps = nxt.take(at[:-1, None] + j * m + maps)
    starts = [int(np.searchsorted(cum_pi, u[0]))]
    for block_map in maps.tolist():
        starts.append(block_map[starts[-1]])
    states = np.empty(1 + blocks * size, dtype=nxt.dtype)
    states[0] = starts[0]
    states_by_block = states[1:].reshape(blocks, size)
    state = np.array(starts)
    for j in range(min(size, steps)):
        # the last block repeats the last step; those positions are cut below
        state = nxt.take(np.minimum(at, m * (steps - 1)) + state)
        states_by_block[:, j] = state
        at += m
    return states[: len(u)]


def sample_sequence(
    params: HmmParams, length: int, coverage_mean: float, seed
) -> CountSequence:
    """Sample counts of the given length from a binomial HMM with Poisson coverage.

    One ``rng.random(length)`` call, the stream of one draw per position, drives the chain.
    The counts are drawn ``_STEP`` rows at a time, in the row order of one whole
    draw, so no float array as long as the sequence is held beside them; they
    are made read-only, so the sequence keeps them without a copy."""
    if length < 1:
        raise ParameterError(f"length must be >= 1, got {length}")
    if not 0.0 <= coverage_mean <= _MAX_COVERAGE_MEAN:
        raise ParameterError(
            f"coverage_mean must lie in [0, {_MAX_COVERAGE_MEAN:.4g}], got {coverage_mean}"
        )
    rng = np.random.default_rng(seed)
    states = _hidden_states(params, rng.random(length))
    cell_probs = params.cell_probs()
    coverage = rng.poisson(coverage_mean, size=(length, len(cell_probs)))
    meth = np.empty_like(coverage)
    for lo in range(0, length, _STEP):
        meth[lo : lo + _STEP] = rng.binomial(
            coverage[lo : lo + _STEP], cell_probs[:, states[lo : lo + _STEP]].T
        )
    coverage.setflags(write=False)
    meth.setflags(write=False)
    return CountSequence(coverage, meth)


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary distribution of a column-stochastic transition matrix."""
    vals, vecs = np.linalg.eig(np.asarray(transition, dtype=np.float64))
    idx = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, idx])
    v = np.abs(v)
    return v / v.sum()


def estimation_error(p_true: np.ndarray, p_est: np.ndarray) -> tuple[float, np.ndarray]:
    """Best-matching total error between true and estimated probabilities.

    Minimizes sum_h |p_true[h] - p_est[sigma(h)]| over permutations sigma with
    the Hungarian solver; returns the total and the minimizing permutation.
    """
    p_true = np.asarray(p_true, dtype=np.float64).ravel()
    p_est = np.asarray(p_est, dtype=np.float64).ravel()
    if p_true.shape != p_est.shape:
        raise ParameterError(
            f"probability vectors must have equal length, got {p_true.shape} and {p_est.shape}"
        )
    from .hungarian import solve_assignment

    cost = np.abs(p_true[:, None] - p_est[None, :])
    sigma, total = solve_assignment(cost)
    return total, sigma


@dataclass(eq=False)
class BenchmarkRow:
    """One fit of the sweep. ``seconds`` is the fitting thread's CPU time
    (``time.thread_time``), so rows run side by side in a thread pool do not
    charge each other's work; BLAS worker threads are not counted."""

    length: int
    trial: int
    algorithm: str
    error: float
    seconds: float
    status: str
    recovered_probs: list | None = None


@dataclass(eq=False)
class ExperimentReport:
    """All benchmark rows plus CSV writers and per-cell aggregates."""

    config: SynthConfig
    rows: list

    def _ok_rows(self, length: int, algorithm: str) -> list:
        key = (length, algorithm, "ok")
        return [r for r in self.rows if (r.length, r.algorithm, r.status) == key]

    def ok_errors(self, length: int, algorithm: str) -> np.ndarray:
        return np.array([r.error for r in self._ok_rows(length, algorithm)])

    def ok_seconds(self, length: int, algorithm: str) -> np.ndarray:
        return np.array([r.seconds for r in self._ok_rows(length, algorithm)])

    def summarize(self) -> list[dict]:
        out = []
        for length in self.config.lengths:
            for algo in _ALGORITHMS:
                errs = self.ok_errors(length, algo)
                secs = self.ok_seconds(length, algo)
                n_all = sum(
                    1 for r in self.rows if r.length == length and r.algorithm == algo
                )
                out.append(
                    {
                        "length": length,
                        "algorithm": algo,
                        "trials": n_all,
                        "ok": errs.size,
                        "mean_error": float(errs.mean()) if errs.size else math.nan,
                        "std_error": float(errs.std(ddof=1)) if errs.size > 1 else math.nan,
                        "mean_seconds": float(secs.mean()) if secs.size else math.nan,
                    }
                )
        return out

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["length", "trial", "algorithm", "error", "seconds", "status"])
            for r in self.rows:
                writer.writerow(
                    [r.length, r.trial, r.algorithm, repr(r.error), repr(r.seconds), r.status]
                )

    def write_summary_csv(self, path) -> None:
        import csv

        rows = self.summarize()
        with open(path, "w", newline="") as fh:
            # summarize() fixes the columns: every row has the same keys
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


def _row_seeds(master_seed: int, length: int, trial: int, algorithm: str) -> np.ndarray:
    """Three integer seeds (params, data, fit) owned by one benchmark row."""
    ss = np.random.SeedSequence(
        (master_seed, length, trial, _ALGORITHMS.index(algorithm))
    )
    return ss.generate_state(3)


def _run_row(cfg: SynthConfig, length: int, trial: int, algorithm: str) -> BenchmarkRow:
    from .em import EmConfig, em_fit
    from .pipeline import ftd_fit

    param_seed, data_seed, fit_seed = (int(s) for s in _row_seeds(cfg.seed, length, trial, algorithm))
    params = generate_params(cfg, param_seed)
    seq = sample_sequence(params, length, cfg.coverage_mean, data_seed)
    start = time.thread_time()
    try:
        if algorithm == "ftd":
            fitted = ftd_fit(seq, cfg.num_states, cfg.ftd)
            est = fitted.per_cell_probs[0]
        else:
            em_cfg = EmConfig(
                max_iters=cfg.em_max_iters,
                rel_ll_tolerance=cfg.em_rel_tol,
                seed=fit_seed,
            )
            trace = em_fit(seq, cfg.num_states, em_cfg)
            est = trace.params.cell_probs()[0]
        seconds = time.thread_time() - start
        error, _ = estimation_error(params.cell_probs()[0], est)
        return BenchmarkRow(
            length=length,
            trial=trial,
            algorithm=algorithm,
            error=error,
            seconds=seconds,
            status="ok",
            recovered_probs=np.asarray(est).tolist(),
        )
    except BetaHmmError as exc:
        seconds = time.thread_time() - start
        return BenchmarkRow(
            length=length,
            trial=trial,
            algorithm=algorithm,
            error=math.nan,
            seconds=seconds,
            status=f"error: {exc}",
        )


def run_benchmark(cfg: SynthConfig, threads: int = 1) -> ExperimentReport:
    """Fit both algorithms over every (length, trial) cell of the sweep.

    Each row owns seeds derived from (master seed, length, trial, algorithm),
    so results do not depend on execution order and individual failures are
    recorded without aborting the sweep. BLAS runs on one thread throughout
    (:func:`_one_blas_thread`), so every row's seconds count all of its work.
    """
    from concurrent.futures import ThreadPoolExecutor

    tasks = [
        (length, trial, algo)
        for length in cfg.lengths
        for trial in range(cfg.trials)
        for algo in _ALGORITHMS
    ]
    with _one_blas_thread():
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                rows = list(pool.map(lambda t: _run_row(cfg, *t), tasks))
        else:
            rows = [_run_row(cfg, *t) for t in tasks]
    return ExperimentReport(config=cfg, rows=rows)
