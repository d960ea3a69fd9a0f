"""Synthetic models, samplers, and the benchmark harness.

The generator plants models with two lowly and two highly methylated states
(for the default four states), a diagonally dominant random transition matrix
and Poisson coverage. The benchmark sweeps sequence lengths, fitting both the
spectral method and EM on fresh draws, and records Hungarian-matched
estimation errors and per-thread CPU times per run.
"""

from __future__ import annotations

import csv
import ctypes
import glob
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .em import EmConfig, em_fit
from .errors import BetaHmmError, ParameterError
from .hungarian import solve_assignment
from .model import CountSequence, HmmParams
from .pipeline import FtdConfig, ftd_fit

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

    ``nxt[t, i]``, the state at t + 1 after state i at t, takes one
    ``searchsorted`` per state. The steps fall into K blocks of B =
    isqrt(length - 1); each block's map from its first state to its last is
    composed in B rounds, the block starts are carried through those maps,
    and every block is filled from its start in B more rounds.
    """
    m = params.num_states
    cum_pi = np.cumsum(params.initial_dist)
    cum_T = np.cumsum(params.transition, axis=0).T  # row i: cumulative column i
    cum_pi[-1] = cum_T[:, -1] = np.inf  # the cap at the last state
    steps = len(u) - 1
    nxt = np.empty((steps, m), dtype=np.intp)
    for i in range(m):
        nxt[:, i] = np.searchsorted(cum_T[i], u[1:])
    size = max(math.isqrt(steps), 1)
    blocks = max(-(-steps // size), 1)  # at length 1, one block whose step is cut
    maps = np.broadcast_to(np.arange(m), (blocks - 1, m))
    for j in range(size):
        maps = np.take_along_axis(nxt[j : (blocks - 1) * size : size], maps, axis=1)
    starts = [int(np.searchsorted(cum_pi, u[0]))]
    for block_map in maps.tolist():
        starts.append(block_map[starts[-1]])
    states = np.empty(1 + blocks * size, dtype=np.intp)
    states[0] = starts[0]
    states_by_block = states[1:].reshape(blocks, size)
    state = np.array(starts)
    rows = size * np.arange(blocks)
    for j in range(min(size, steps)):
        # the last block repeats the last step; those positions are cut below
        state = nxt[np.minimum(rows + j, steps - 1), state]
        states_by_block[:, j] = state
    return states[: len(u)]


def sample_sequence(
    params: HmmParams, length: int, coverage_mean: float, seed
) -> CountSequence:
    """Sample counts of the given length from a binomial HMM with Poisson coverage.

    One ``rng.random(length)`` call, the stream of one draw per position, drives the chain."""
    if length < 1:
        raise ParameterError(f"length must be >= 1, got {length}")
    if coverage_mean < 0.0:
        raise ParameterError(f"coverage_mean must be >= 0, got {coverage_mean}")
    rng = np.random.default_rng(seed)
    states = _hidden_states(params, rng.random(length))
    probs = params.cell_probs()[:, states].T  # (length, num_cells)
    coverage = rng.poisson(coverage_mean, size=probs.shape)
    meth = rng.binomial(coverage, probs)
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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["length", "trial", "algorithm", "error", "seconds", "status"])
            for r in self.rows:
                writer.writerow(
                    [r.length, r.trial, r.algorithm, repr(r.error), repr(r.seconds), r.status]
                )

    def write_summary_csv(self, path) -> None:
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


# numpy's wheels bundle OpenBLAS under these names (64- and 32-bit integer builds)
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_calls():
    """The (get, set) thread-count calls of the OpenBLAS in numpy's wheel, or None.

    numpy has no call for the BLAS thread count, so it is reached through
    that library; with any other BLAS there is none.
    """
    root = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(root, "..", "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                return getattr(lib, get_name), getattr(lib, set_name)
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with BLAS on one thread, where its thread count can be set.

    A row's seconds are the CPU time of the thread that ran the fit, so BLAS
    work on worker threads goes uncounted while the fit's own wait for them
    is counted: with four fits at a time on two cores and two BLAS threads,
    spectral fits at 8192 read 0.03-0.06 s against 0.02-0.025 s on one.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get_threads, set_threads = calls
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def run_benchmark(cfg: SynthConfig, threads: int = 1) -> ExperimentReport:
    """Fit both algorithms over every (length, trial) cell of the sweep.

    Each row owns seeds derived from (master seed, length, trial, algorithm),
    so results do not depend on execution order and individual failures are
    recorded without aborting the sweep. BLAS runs on one thread throughout
    (:func:`_one_blas_thread`), so every row's seconds count all of its work.
    """
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
