"""From per-state feature means back to interpretable HMM parameters.

Success probabilities come from an affine correction of the bin-weighted mean
of each state's histogram. The joint distribution of two consecutive hidden
states is estimated either by an exact least-squares fit over the simplex (an
active-set QP solve, always feasible) or by direct pseudoinversion of the
pairwise moment (cheap but clamp-prone); initial distribution and transition
matrix follow from that joint by marginalization and column normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .spectral import _pinv

__all__ = [
    "StateJoint",
    "recover_meth_probs",
    "estimate_joint_lsq",
    "chain_from_joint",
    "chain_via_pinv",
    "differential_states",
]

PI_FLOOR = 1e-8

# how far each cell block of a feature-mean column may sum from 1
_BLOCK_ATOL = 1e-6

# multipliers above -this times max|q| count as zero, so round-off cannot cycle
_MULTIPLIER_RTOL = 1e-12
# active-set steps before the joint fit gives up; measured fits take 1 to 13
_MAX_STEPS = 1000


@dataclass(eq=False)
class StateJoint:
    """Estimated joint distribution of (next state, current state).

    ``matrix[i, j]`` approximates P(h_{t+1} = i, h_t = j); entries are
    non-negative and sum to 1 by construction of the constrained fit.
    ``iterations`` counts active-set steps and ``kkt_residual`` is the largest
    absolute stationarity residual over the free entries.
    """

    matrix: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float


def _check_block_structure(feature_means: np.ndarray, granularity: int) -> int:
    if feature_means.ndim != 2:
        raise ParameterError(f"feature means must be 2-D, got shape {feature_means.shape}")
    dim = feature_means.shape[0]
    if granularity < 1 or dim % granularity != 0:
        raise ParameterError(
            f"granularity {granularity} does not divide feature dimension {dim}"
        )
    return dim // granularity


def recover_meth_probs(
    feature_means: np.ndarray,
    prior_weights,
    granularity: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell, per-state success probabilities from histogram feature means.

    For each cell block of each state column, take the bin-midpoint weighted
    mean sum_i ((i - 0.5) / D) * column_i, subtract the cell's empirical prior
    weight a, and rescale by 1 / (1 - 2a). Returns ``(probs, raw)`` where
    ``probs`` is clamped into [0, 1] and ``raw`` keeps the pre-clamp values as
    a diagnostic. Shapes are (num_cells, num_states).
    """
    num_blocks = _check_block_structure(feature_means, granularity)
    a = np.atleast_1d(np.asarray(prior_weights, dtype=np.float64))
    if a.shape != (num_blocks,):
        raise ParameterError(
            f"expected {num_blocks} prior weights, got shape {a.shape}"
        )
    if np.any(a <= 0.0) or np.any(a >= 0.5):
        bad = int(np.argmax((a <= 0.0) | (a >= 0.5)))
        raise ParameterError(
            f"prior weight for cell {bad} is {a[bad]}; must lie in (0, 0.5) "
            "(a weight of 0.5 means zero coverage everywhere)"
        )
    D = granularity
    m = feature_means.shape[1]
    blocks = feature_means.reshape(num_blocks, D, m)
    sums = blocks.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > _BLOCK_ATOL):
        b, col = np.argwhere(np.abs(sums - 1.0) > _BLOCK_ATOL)[0]
        raise ParameterError(
            f"cell block {b} of state column {col} sums to {sums[b, col]}, "
            f"expected 1 within {_BLOCK_ATOL}"
        )
    weights = (np.arange(1, D + 1) - 0.5) / D
    weighted = np.einsum("d,bdm->bm", weights, blocks)
    raw = (weighted - a[:, None]) / (1.0 - 2.0 * a[:, None])
    probs = np.clip(raw, 0.0, 1.0)
    return probs, raw


def estimate_joint_lsq(p21: np.ndarray, feature_means: np.ndarray) -> StateJoint:
    """Joint-state estimate as the exact solution of a simplex-constrained QP.

    Minimizes ``norm(p21 - C @ H @ C.T)**2`` over {H >= 0, sum(H) = 1}, with C
    the feature means: in x = vec(H), ``x @ Q @ x - 2 q @ x`` plus a constant,
    Q = kron(C.T C, C.T C) positive definite and q = vec(C.T p21 C). A primal
    active-set method (Lawson and Hanson, 1974, ch. 23) starts from the uniform
    joint and solves the KKT system of the free entries plus the sum row. A
    step that would leave the simplex stops at the first bound it meets and
    fixes that entry; one that stays inside frees the fixed entry with the most
    negative multiplier, or ends the solve when none is negative. Past
    ``_MAX_STEPS`` steps it raises ``NumericalError``.
    """
    C = np.asarray(feature_means, dtype=np.float64)
    if C.ndim != 2:
        raise ParameterError(f"feature means must be 2-D, got shape {C.shape}")
    m = C.shape[1]
    if p21.shape != (C.shape[0], C.shape[0]):
        raise ParameterError(
            f"pair moment shape {p21.shape} does not match feature dimension {C.shape[0]}"
        )
    if _pinv(C)[1] < m:
        raise NumericalError(
            "feature mean matrix is rank deficient; the joint fit is not identifiable"
        )
    n = m * m
    gram = C.T @ C
    Q = np.kron(gram, gram)
    q = (C.T @ p21 @ C).ravel()
    # KKT matrix of every entry plus the sum row; each step solves a sub-block
    kkt = np.block([[Q, np.ones((n, 1))], [np.ones((1, n)), np.zeros((1, 1))]])
    rhs = np.append(q, 1.0)
    tol = _MULTIPLIER_RTOL * float(np.abs(q).max())
    x = np.full(n, 1.0 / n)
    free = np.ones(n, dtype=bool)
    for steps in range(1, _MAX_STEPS + 1):
        rows = np.append(np.flatnonzero(free), n)
        sol = np.linalg.solve(kkt[np.ix_(rows, rows)], rhs[rows])
        idx, y = rows[:-1], sol[:-1]
        blocked = y < 0.0
        if blocked.any():
            # walk toward y until the first entry reaches zero (clipping
            # round-off below zero), and fix that entry there
            xb = x[idx[blocked]]
            ratios = xb / (xb - y[blocked])
            first = int(np.argmin(ratios))
            x[idx] = np.maximum(x[idx] + ratios[first] * (y - x[idx]), 0.0)
            hit = idx[blocked][first]
            x[hit] = 0.0
            free[hit] = False
            continue
        x[idx] = y  # fixed entries are already zero
        # stationarity: (Q x - q)_i + s = multiplier_i, zero on free entries
        multipliers = Q @ x - q + sol[-1]
        residual = float(np.abs(multipliers[idx]).max())
        multipliers[idx] = np.inf
        worst = int(np.argmin(multipliers))
        if multipliers[worst] >= -tol:
            break
        free[worst] = True
    else:
        raise NumericalError(
            f"joint fit did not settle within {_MAX_STEPS} active-set steps"
        )
    h = x.reshape(m, m)
    objective = float(np.sum((p21 - C @ h @ C.T) ** 2))
    return StateJoint(matrix=h, objective=objective, iterations=steps, kkt_residual=residual)


def chain_from_joint(joint) -> tuple[np.ndarray, np.ndarray]:
    """Initial distribution and transition matrix from a consecutive-state joint.

    The initial distribution is the column-sum marginal (the earlier of the
    two positions); entries below ``PI_FLOOR`` are lifted to it before
    renormalizing, and transition columns are renormalized to sum exactly 1.
    """
    h = joint.matrix if isinstance(joint, StateJoint) else np.asarray(joint, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ParameterError(f"joint must be square, got shape {h.shape}")
    if float(h.min()) < -1e-12:
        raise ParameterError(f"joint has a negative entry ({h.min()})")
    total = float(h.sum())
    if abs(total - 1.0) > 1e-6:
        raise ParameterError(f"joint entries sum to {total}, expected 1")
    m = h.shape[0]
    col = np.maximum(h.sum(axis=0), 0.0)
    floored = np.maximum(col, PI_FLOOR)
    pi = floored / floored.sum()
    T = h / floored[None, :]
    col_sums = T.sum(axis=0)
    for j in range(m):
        if col_sums[j] > 0.0:
            T[:, j] /= col_sums[j]
        else:
            T[:, j] = 1.0 / m
    return pi, T


def chain_via_pinv(
    p21: np.ndarray, feature_means: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Direct joint-state estimate through pseudoinverses of the feature means.

    Computes ``pinv(C) @ p21 @ pinv(C).T``, clamps negatives (the clamped mass
    is returned as the third element), renormalizes to a distribution, and
    marginalizes as in :func:`chain_from_joint`.
    """
    C = np.asarray(feature_means, dtype=np.float64)
    m = C.shape[1]
    pinv_c, rank = _pinv(C)
    if rank < m:
        raise NumericalError(
            "feature mean matrix is rank deficient; cannot invert for the joint"
        )
    raw = pinv_c @ p21 @ pinv_c.T
    clamp_mass = float(-raw[raw < 0.0].sum())
    np.maximum(raw, 0.0, out=raw)
    total = float(raw.sum())
    if total <= 0.0:
        raise NumericalError("pseudoinverse joint clamped to zero everywhere")
    raw /= total
    pi, T = chain_from_joint(raw)
    return pi, T, clamp_mass


def differential_states(per_cell_probs: np.ndarray, threshold: float) -> list[int]:
    """States whose success probabilities differ across two cell types.

    Requires exactly two rows in ``per_cell_probs``; returns indices h with
    ``abs(p[0, h] - p[1, h]) >= threshold`` sorted by descending gap.
    """
    probs = np.asarray(per_cell_probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] != 2:
        raise ParameterError(
            f"differential calling is defined for exactly two cell types, got shape {probs.shape}"
        )
    if not 0.0 <= threshold <= 1.0:
        raise ParameterError(f"threshold must lie in [0, 1], got {threshold}")
    gaps = np.abs(probs[0] - probs[1])
    hits = [h for h in range(probs.shape[1]) if gaps[h] >= threshold]
    hits.sort(key=lambda h: -gaps[h])
    return hits
