"""Core types for binomial hidden Markov models over methylation count data.

The observed process is a pair of integer sequences per cell type: a read
coverage c_t and a methylated-read count mu_t with 0 <= mu_t <= c_t. Hidden
states follow a first-order Markov chain; given the state h_t, mu_t is
binomial with c_t trials and a state-specific success probability.

Transition matrices here are column stochastic: ``transition[i, j]`` is the
probability of moving to state ``i`` given the current state is ``j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DataError, ParameterError

__all__ = [
    "Observation",
    "CountSequence",
    "HmmParams",
    "validate_params",
]

_SUM_ATOL = 1e-12


@dataclass(frozen=True)
class Observation:
    """One genomic bin: read coverage and how many of those reads were methylated."""

    coverage: int
    meth_count: int

    def __post_init__(self) -> None:
        if self.coverage < 0:
            raise ParameterError(f"coverage must be >= 0, got {self.coverage}")
        if not 0 <= self.meth_count <= self.coverage:
            raise ParameterError(
                f"meth_count {self.meth_count} outside [0, {self.coverage}]"
            )


class CountSequence:
    """An immutable run of count observations with shape ``(length, num_cells)``.

    Counts are stored as two integer arrays so feature mapping and moment
    accumulation can run vectorised over positions. The constructor checks
    them and stores them read-only; slices share that storage.
    """

    __slots__ = ("_coverage", "_meth")

    def __init__(self, coverage, meth) -> None:
        cov = np.array(coverage, dtype=np.int64)
        mu = np.array(meth, dtype=np.int64)
        if cov.ndim == 1:
            cov = cov[:, None]
        if mu.ndim == 1:
            mu = mu[:, None]
        if cov.ndim != 2 or mu.ndim != 2 or cov.shape != mu.shape:
            raise DataError(
                f"coverage and meth shapes must match, got {cov.shape} and {mu.shape}"
            )
        if cov.shape[1] < 1:
            raise DataError("sequence must carry at least one cell")
        if np.any(cov < 0):
            t, j = np.argwhere(cov < 0)[0]
            raise DataError(f"negative coverage at position {t}, cell {j}")
        bad = (mu < 0) | (mu > cov)
        if np.any(bad):
            t, j = np.argwhere(bad)[0]
            raise DataError(
                f"meth count outside [0, coverage] at position {t}, cell {j}"
            )
        cov.setflags(write=False)
        mu.setflags(write=False)
        self._coverage = cov
        self._meth = mu

    @classmethod
    def from_observations(cls, observations: Iterable) -> "CountSequence":
        """Build a sequence from Observations (single cell) or per-cell tuples."""
        rows_cov, rows_mu = [], []
        for entry in observations:
            if isinstance(entry, Observation):
                entry = (entry,)
            rows_cov.append([o.coverage for o in entry])
            rows_mu.append([o.meth_count for o in entry])
        if not rows_cov:
            raise DataError("empty observation list")
        widths = {len(r) for r in rows_cov}
        if len(widths) != 1:
            raise DataError("every position must carry the same number of cells")
        return cls(np.array(rows_cov), np.array(rows_mu))

    @property
    def coverage(self) -> np.ndarray:
        return self._coverage

    @property
    def meth(self) -> np.ndarray:
        return self._meth

    @property
    def num_cells(self) -> int:
        return self._coverage.shape[1]

    def __len__(self) -> int:
        return self._coverage.shape[0]

    def cell(self, index: int) -> "CountSequence":
        """A single-cell sequence holding a copy of one column."""
        return CountSequence(self._coverage[:, [index]], self._meth[:, [index]])

    def __getitem__(self, key) -> "CountSequence":
        """A slice sharing this sequence's storage: views of its read-only
        arrays, which the constructor checked, so no copy and no re-check."""
        if not isinstance(key, slice):
            raise TypeError("CountSequence supports slicing only")
        view = object.__new__(CountSequence)
        view._coverage, view._meth = self._coverage[key], self._meth[key]
        return view

    def __repr__(self) -> str:
        return f"CountSequence(length={len(self)}, num_cells={self.num_cells})"


@dataclass(frozen=True, eq=False)
class HmmParams:
    """Parameters of a binomial HMM.

    ``meth_probs`` is either a length-m vector (single cell) or a (k, m)
    matrix holding one row of per-state success probabilities per cell type.
    A one-row matrix is stored as its vector. Construction copies the arrays
    read-only and checks them with :func:`validate_params`, so every instance
    is valid and no caller checks one again.
    """

    initial_dist: np.ndarray
    transition: np.ndarray
    meth_probs: np.ndarray

    def __post_init__(self) -> None:
        for name in ("initial_dist", "transition", "meth_probs"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.meth_probs.ndim == 2 and len(self.meth_probs) == 1:
            object.__setattr__(self, "meth_probs", self.meth_probs[0])
        validate_params(self)

    @property
    def num_states(self) -> int:
        return self.initial_dist.shape[0]

    @property
    def num_cells(self) -> int:
        return 1 if self.meth_probs.ndim == 1 else self.meth_probs.shape[0]

    def cell_probs(self) -> np.ndarray:
        """meth_probs viewed as a (num_cells, num_states) matrix."""
        p = self.meth_probs
        return p[None, :] if p.ndim == 1 else p


def validate_params(params: HmmParams) -> HmmParams:
    """Check HMM parameter invariants, returning ``params`` unchanged.

    Raises :class:`ParameterError` naming the first violated invariant.
    ``HmmParams.__post_init__`` calls it on every instance it builds.
    """
    pi = params.initial_dist
    T = params.transition
    p = params.meth_probs
    if pi.ndim != 1 or pi.size < 1:
        raise ParameterError(f"initial distribution must be a non-empty vector, got shape {pi.shape}")
    m = pi.size
    if np.any(~np.isfinite(pi)):
        raise ParameterError("initial distribution has non-finite entries")
    if np.any(pi < 0):
        idx = int(np.argmax(pi < 0))
        raise ParameterError(f"initial distribution entry {idx} is negative ({pi[idx]})")
    total = float(pi.sum())
    if abs(total - 1.0) > _SUM_ATOL:
        raise ParameterError(f"initial distribution sums to {total} (must be 1 within {_SUM_ATOL})")
    if T.shape != (m, m):
        raise ParameterError(f"transition matrix shape {T.shape} does not match {m} states")
    if np.any(~np.isfinite(T)):
        raise ParameterError("transition matrix has non-finite entries")
    if np.any(T < 0):
        i, j = np.argwhere(T < 0)[0]
        raise ParameterError(f"transition entry ({i}, {j}) is negative ({T[i, j]})")
    col_sums = T.sum(axis=0)
    off = np.abs(col_sums - 1.0)
    if np.any(off > _SUM_ATOL):
        j = int(np.argmax(off))
        raise ParameterError(
            f"transition column {j} sums to {col_sums[j]} (must be 1 within {_SUM_ATOL})"
        )
    if p.ndim not in (1, 2) or p.shape[-1] != m:
        raise ParameterError(
            f"meth_probs shape {p.shape} does not match {m} states"
        )
    if p.shape[0] < 1:
        raise ParameterError("meth_probs must carry at least one cell")
    if np.any(~np.isfinite(p)):
        raise ParameterError("meth_probs has non-finite entries")
    if np.any(p < 0) or np.any(p > 1):
        flat = np.argwhere((p < 0) | (p > 1))[0]
        raise ParameterError(
            f"meth_probs entry at {tuple(int(i) for i in flat)} outside [0, 1]"
        )
    return params

